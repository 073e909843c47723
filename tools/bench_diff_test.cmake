# Runs bench_diff on two fixture directories and checks its exit code and,
# when EXPECT_OUTPUT is set, that its report matches that pattern.
#   cmake -DBENCH_DIFF=... -DBASE=... -DFRESH=... -DEXPECT_CODE=N
#         [-DEXPECT_OUTPUT=REGEX] -P bench_diff_test.cmake
execute_process(COMMAND "${BENCH_DIFF}" "${BASE}" "${FRESH}"
                RESULT_VARIABLE code OUTPUT_VARIABLE report)
message("${report}")
if(NOT code EQUAL EXPECT_CODE)
  message(FATAL_ERROR "bench_diff exited ${code}, expected ${EXPECT_CODE}")
endif()
if(DEFINED EXPECT_OUTPUT AND NOT report MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "bench_diff report does not match '${EXPECT_OUTPUT}'")
endif()

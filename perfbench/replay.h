// The serve-replay loop: one in-process client (a serve::Connection, no
// socket, no think time) feeding a protocol script line by line.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "serve/service.h"
#include "tracer.h"

namespace perfbench {

/// Batch-analysis text of every tenant, keyed by tenant name.
using StudyTexts = std::map<std::string, std::string, std::less<>>;

/// The service as `tsufail serve` configures it by default (cache 256,
/// alerts on, no data dir), except reorder horizon 0 so a replay seals
/// exactly the rows fed so far.
tsufail::serve::ServiceConfig replay_service_config();

/// `OPEN <name> <machine>\n` for every tenant.
std::vector<std::string> open_lines(const std::vector<TenantInput>& tenants);

/// Feeds the OPEN lines; returns how many were not answered OK.
std::size_t open_tenants(tsufail::serve::FleetService& service,
                         const std::vector<std::string>& opens);

struct ReplayResult {
  double wall_s = 0.0;    ///< every script line
  double ingest_s = 0.0;  ///< the EVENT and SEAL lines (everything before the first QUERY)
  std::size_t events = 0;
  std::size_t lines = 0;
  std::size_t errors = 0;            ///< lines answered ERR
  std::vector<double> query_s;       ///< latency of each QUERY line
  std::size_t study_checks = 0;      ///< `QUERY <tenant> study` payloads compared
  std::size_t study_mismatches = 0;  ///< ... that differ from the tenant's batch text
};

/// Feeds `script` through one Connection on `service`, comparing every
/// `QUERY <tenant> study` payload with `expected`.  With a tracer, each
/// line is one span (serve.feed_event / feed_seal / feed_query).
ReplayResult replay(tsufail::serve::FleetService& service, const std::vector<std::string>& script,
                    const StudyTexts& expected, Tracer* tracer);

}  // namespace perfbench

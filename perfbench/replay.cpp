#include "replay.h"

#include <string_view>

#include "serve/protocol.h"

namespace perfbench {

using namespace tsufail;

serve::ServiceConfig replay_service_config() {
  serve::ServiceConfig config;
  config.tenant.stream.reorder_horizon_hours = 0.0;
  return config;
}

std::vector<std::string> open_lines(const std::vector<TenantInput>& tenants) {
  std::vector<std::string> lines;
  for (const auto& tenant : tenants)
    lines.push_back("OPEN " + tenant.name + " " + tenant.machine + "\n");
  return lines;
}

std::size_t open_tenants(serve::FleetService& service, const std::vector<std::string>& opens) {
  serve::Connection connection(service);
  std::string out;
  std::size_t failed = 0;
  for (const auto& line : opens) {
    out.clear();
    connection.feed(line, out);
    if (out.rfind("OK", 0) != 0) ++failed;
  }
  return failed;
}

ReplayResult replay(serve::FleetService& service, const std::vector<std::string>& script,
                    const StudyTexts& expected, Tracer* tracer) {
  serve::Connection connection(service);
  ReplayResult result;
  result.query_s.reserve(script.size());
  Tracer::NameId names[3] = {};
  if (tracer != nullptr) {
    names[0] = tracer->intern("serve.feed_event");
    names[1] = tracer->intern("serve.feed_seal");
    names[2] = tracer->intern("serve.feed_query");
  }

  std::string out;
  const std::int64_t start = now_ns();
  std::int64_t ingest_end = 0;
  for (const std::string& command : script) {
    const char verb = command[0];  // 'E'VENT, 'S'EAL, 'Q'UERY
    if (verb == 'Q' && ingest_end == 0) ingest_end = now_ns();
    out.clear();
    const std::int64_t before = verb == 'Q' ? now_ns() : 0;
    if (tracer != nullptr) {
      auto span = tracer->span(names[verb == 'E' ? 0 : verb == 'S' ? 1 : 2]);
      connection.feed(command, out);
    } else {
      connection.feed(command, out);
    }
    if (verb == 'Q') result.query_s.push_back(static_cast<double>(now_ns() - before) * 1e-9);
    ++result.lines;
    if (verb == 'E') ++result.events;
    if (out.rfind("ERR", 0) == 0) {
      ++result.errors;
      continue;
    }
    if (verb == 'Q' && command.ends_with(" study\n")) {
      // "QUERY <tenant> study\n"; the payload follows the response's first line.
      const std::string_view tenant = std::string_view(command).substr(6, command.size() - 6 - 7);
      const std::string_view payload = std::string_view(out).substr(out.find('\n') + 1);
      const auto want = expected.find(tenant);
      ++result.study_checks;
      if (want == expected.end() || want->second != payload) ++result.study_mismatches;
    }
  }
  const std::int64_t end = now_ns();
  result.wall_s = static_cast<double>(end - start) * 1e-9;
  result.ingest_s = static_cast<double>((ingest_end != 0 ? ingest_end : end) - start) * 1e-9;
  return result;
}

}  // namespace perfbench

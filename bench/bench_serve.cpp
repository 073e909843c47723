// bench_serve: fleet-scale replay driver for the tsufail serve layer.
//
// Default mode replays >= 1200 interleaved tenant streams through the
// line protocol in process (no sockets — Connection::feed is the unit
// under test), sealing epochs and issuing cached queries along the way,
// and reports ingest events/s, query latency percentiles (from the
// serve.query.seconds obs histogram), cache hit ratio, and steady-state
// RSS as BENCH_serve.json.
//
// After the fleet, a restart leg grows one Tsubame-3 tenant of 10^5
// records (2x10^4 under --quick) in 1000-record sealed epochs under a
// data dir, then restores it in a fresh service; it reports seal p50/p99
// and the remount's seconds, and exits 1 unless the restored QUERY study
// equals the one answered before the restart.
//
//   $ ./bench_serve                      # 1200-tenant fleet replay
//   $ ./bench_serve --tenants 2000
//   $ ./bench_serve --quick              # 2 tenants + equivalence gate
//   $ ./bench_serve --connect HOST:PORT  # drive a live daemon (CI smoke)
//
// --quick and --connect run the correctness gate the CI serve-smoke job
// depends on: each tenant's log is replayed in two sealed epochs (so the
// second snapshot exists only via the incremental index merge) and the
// QUERY study response must be byte-identical to the one-shot
// `tsufail analyze` rendering of the same log.  Exit 1 on any mismatch.
#include <arpa/inet.h>
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/study.h"
#include "bench_common.h"
#include "data/log_io.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "report/study_text.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "sim/generator.h"

using namespace tsufail;

namespace {

/// Data rows of the canonical CSV serialization (header dropped) — the
/// exact lines `EVENT <tenant> <row>` ingests.
std::vector<std::string> csv_rows(const data::FailureLog& log) {
  std::vector<std::string> rows;
  rows.reserve(log.size());
  std::istringstream text(data::write_log_csv(log));
  std::string line;
  bool header = true;
  while (std::getline(text, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

/// Resident set size in MiB from /proc/self/status (0 if unavailable).
double rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string expected_study_text(const data::FailureLog& log) {
  auto study = analysis::run_study(log);
  if (!study.ok()) {
    std::printf("FATAL: run_study: %s\n", study.error().to_string().c_str());
    std::exit(1);
  }
  return report::render_study_text(log, study.value());
}

// --- in-process protocol driver ---------------------------------------

struct LocalDriver {
  serve::FleetService* service;
  serve::Connection connection;
  std::string out;

  explicit LocalDriver(serve::FleetService& svc) : service(&svc), connection(svc) {}

  /// Feeds one command line; returns the (possibly empty) response and
  /// fails the bench on an ERR.
  std::string command(const std::string& line, bool allow_err = false) {
    out.clear();
    connection.feed(line + "\n", out);
    if (!allow_err && out.rfind("ERR", 0) == 0) {
      std::printf("FATAL: %s -> %s", line.c_str(), out.c_str());
      std::exit(1);
    }
    return out;
  }
};

// --- TCP client driver (for --connect) --------------------------------

struct RemoteDriver {
  int fd = -1;
  std::string inbox;

  bool connect_to(const std::string& host, const std::string& port) {
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* found = nullptr;
    if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &found) != 0 || found == nullptr)
      return false;
    fd = ::socket(found->ai_family, found->ai_socktype, found->ai_protocol);
    const bool ok = fd >= 0 && ::connect(fd, found->ai_addr, found->ai_addrlen) == 0;
    ::freeaddrinfo(found);
    return ok;
  }

  void send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      ssize_t sent = ::send(fd, data.data() + off, data.size() - off, 0);
      if (sent <= 0) {
        std::printf("FATAL: send failed\n");
        std::exit(1);
      }
      off += static_cast<std::size_t>(sent);
    }
  }

  bool fill() {
    char buffer[4096];
    ssize_t got = ::recv(fd, buffer, sizeof buffer, 0);
    if (got <= 0) return false;
    inbox.append(buffer, static_cast<std::size_t>(got));
    return true;
  }

  std::string read_line() {
    for (;;) {
      std::size_t newline = inbox.find('\n');
      if (newline != std::string::npos) {
        std::string line = inbox.substr(0, newline);
        inbox.erase(0, newline + 1);
        return line;
      }
      if (!fill()) {
        std::printf("FATAL: connection closed mid-response\n");
        std::exit(1);
      }
    }
  }

  std::string read_bytes(std::size_t n) {
    while (inbox.size() < n) {
      if (!fill()) {
        std::printf("FATAL: connection closed mid-payload\n");
        std::exit(1);
      }
    }
    std::string payload = inbox.substr(0, n);
    inbox.erase(0, n);
    return payload;
  }

  /// Sends a framed command ("OK ... bytes <n>" + payload) and returns
  /// the payload; exits on ERR.
  std::string framed(const std::string& line) {
    send_all(line + "\n");
    std::string header = read_line();
    if (header.rfind("OK", 0) != 0) {
      std::printf("FATAL: %s -> %s\n", line.c_str(), header.c_str());
      std::exit(1);
    }
    std::size_t marker = header.rfind(" bytes ");
    if (marker == std::string::npos) {
      std::printf("FATAL: unframed response: %s\n", header.c_str());
      std::exit(1);
    }
    return read_bytes(std::strtoull(header.c_str() + marker + 7, nullptr, 10));
  }

  /// Sends a command expecting a single OK line; exits on ERR.
  std::string simple(const std::string& line) {
    send_all(line + "\n");
    std::string response = read_line();
    if (response.rfind("OK", 0) != 0) {
      std::printf("FATAL: %s -> %s\n", line.c_str(), response.c_str());
      std::exit(1);
    }
    return response;
  }
};

// --- equivalence gate -------------------------------------------------
//
// Replays one machine's log as two sealed epochs (the second snapshot is
// produced purely by the incremental merge) and diffs QUERY study
// against the batch `tsufail analyze` rendering.

template <typename QueryFn, typename FeedFn, typename SealFn>
bool replay_and_check(const char* tenant, const data::FailureLog& log, FeedFn feed, SealFn seal,
                      QueryFn query) {
  const std::vector<std::string> rows = csv_rows(log);
  const std::size_t half = rows.size() / 2;
  for (std::size_t i = 0; i < half; ++i) feed(tenant, rows[i]);
  seal(tenant);
  for (std::size_t i = half; i < rows.size(); ++i) feed(tenant, rows[i]);
  seal(tenant);

  const std::string expected = expected_study_text(log);
  const std::string got = query(tenant, "study");
  if (got != expected) {
    std::printf("FAIL %s: QUERY study diverges from `tsufail analyze` (%zu vs %zu bytes)\n",
                tenant, got.size(), expected.size());
    return false;
  }
  const std::string again = query(tenant, "study");
  if (again != expected) {
    std::printf("FAIL %s: cached QUERY study diverges from the first response\n", tenant);
    return false;
  }
  std::printf("OK   %s: epoch-merged QUERY study == tsufail analyze (%zu bytes, 2 epochs)\n",
              tenant, expected.size());
  return true;
}

// --- restart leg ------------------------------------------------------

struct RestartResult {
  std::size_t records = 0;
  std::size_t segments = 0;
  double seal_p50_ms = 0.0;
  double seal_p99_ms = 0.0;
  double remount_s = 0.0;
  bool equivalent = false;
};

std::string study_or_die(serve::FleetService& service, const std::string& tenant) {
  auto response = service.query(tenant, "study");
  if (!response.ok()) {
    std::printf("FATAL: query study: %s\n", response.error().to_string().c_str());
    std::exit(1);
  }
  return response.value().text;
}

RestartResult run_restart(std::size_t records) {
  constexpr std::size_t kEpochRecords = 1000;
  sim::MachineModel model = sim::tsubame3_model();
  model.total_failures = records;
  auto log = sim::generate_log(model, 11);
  if (!log.ok()) {
    std::printf("FATAL: generate_log: %s\n", log.error().to_string().c_str());
    std::exit(1);
  }
  const std::vector<std::string> rows = csv_rows(log.value());
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("bench_serve_restart_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  serve::ServiceConfig config;
  config.tenant.stream.reorder_horizon_hours = 0.0;
  config.tenant.per_tenant_metrics = false;
  config.tenant.alerts = false;
  config.tenant.data_dir = dir.string();
  RestartResult result;
  std::string before;
  {
    serve::FleetService service(config);
    LocalDriver driver(service);
    driver.command("OPEN restart tsubame-3");
    std::vector<double> seal_ms;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      driver.command("EVENT restart " + rows[r], /*allow_err=*/true);
      if ((r + 1) % kEpochRecords != 0 && r + 1 != rows.size()) continue;
      obs::Stopwatch seal;
      driver.command("SEAL restart");
      seal_ms.push_back(seal.seconds() * 1e3);
    }
    before = study_or_die(service, "restart");
    result.records = service.tenant_stats("restart").value().records;
    result.segments = seal_ms.size();
    std::sort(seal_ms.begin(), seal_ms.end());
    result.seal_p50_ms = seal_ms[seal_ms.size() / 2];
    result.seal_p99_ms = seal_ms[std::min(seal_ms.size() - 1, seal_ms.size() * 99 / 100)];
  }
  serve::FleetService restarted(config);
  obs::Stopwatch remount;
  auto restored = restarted.restore_tenants();
  result.remount_s = remount.seconds();
  if (!restored.ok() || restored.value() != 1) {
    std::printf("FATAL: restore_tenants: %s\n",
                restored.ok() ? "no tenant" : restored.error().to_string().c_str());
    std::exit(1);
  }
  result.equivalent = study_or_die(restarted, "restart") == before;
  std::filesystem::remove_all(dir);
  std::printf("%s restart: %zu records in %zu segments, seal p50 %.2f ms p99 %.2f ms, "
              "remount %.3f s\n",
              result.equivalent ? "OK  " : "FAIL", result.records, result.segments,
              result.seal_p50_ms, result.seal_p99_ms, result.remount_s);
  return result;
}

// --- fleet replay -----------------------------------------------------

const char* kRotatingKeys[] = {"summary", "categories", "ttr", "tbf", "node-counts"};

int run_fleet(std::size_t tenants, bool quick) {
  obs::set_enabled(true);

  serve::ServiceConfig config;
  config.cache_capacity = 4096;
  config.tenant.stream.reorder_horizon_hours = 0.0;  // release immediately
  config.tenant.per_tenant_metrics = false;          // fleet-scale: keep the registry bounded
  config.tenant.alerts = false;
  serve::FleetService service(config);
  LocalDriver driver(service);

  const data::FailureLog& log = bench::bench_log(data::Machine::kTsubame3);
  const std::vector<std::string> rows = csv_rows(log);

  std::vector<std::string> names;
  names.reserve(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    names.push_back("fleet" + std::to_string(t));
    driver.command("OPEN " + names.back() + " tsubame-3");
  }

  std::printf("replaying %zu records x %zu tenants (interleaved)...\n", rows.size(), tenants);
  const std::size_t seal_every = rows.size() / 3 + 1;  // ~3 epochs per tenant
  std::uint64_t events = 0;
  std::uint64_t queries = 0;
  obs::Stopwatch wall;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t t = 0; t < tenants; ++t) {
      driver.command("EVENT " + names[t] + " " + rows[r]);
      ++events;
    }
    if ((r + 1) % seal_every == 0 || r + 1 == rows.size()) {
      for (std::size_t t = 0; t < tenants; ++t) {
        driver.command("SEAL " + names[t]);
        const char* key = kRotatingKeys[(r + t) % (sizeof kRotatingKeys / sizeof *kRotatingKeys)];
        auto response = service.query(names[t], key);
        if (!response.ok()) {
          std::printf("FATAL: query %s: %s\n", key, response.error().to_string().c_str());
          return 1;
        }
        ++queries;
        // Second hit on the same (tenant, epoch, key): exercises the cache.
        (void)service.query(names[t], key);
        ++queries;
      }
    }
  }
  const double wall_s = wall.seconds();

  const auto snapshot = obs::collect_metrics();
  const auto* latency = snapshot.find_histogram("serve.query.seconds");
  const double p50 = latency != nullptr ? obs::histogram_quantile(*latency, 0.50) : 0.0;
  const double p95 = latency != nullptr ? obs::histogram_quantile(*latency, 0.95) : 0.0;
  const double p99 = latency != nullptr ? obs::histogram_quantile(*latency, 0.99) : 0.0;
  const auto cache = service.cache_stats();
  const double hit_ratio = cache.hits + cache.misses > 0
                               ? static_cast<double>(cache.hits) /
                                     static_cast<double>(cache.hits + cache.misses)
                               : 0.0;
  const double rss = rss_mib();

  std::printf("\n%zu tenants, %llu events in %.2f s -> %.0f events/s\n", tenants,
              static_cast<unsigned long long>(events), wall_s,
              static_cast<double>(events) / wall_s);
  std::printf("%llu queries: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms (histogram estimate)\n",
              static_cast<unsigned long long>(queries), p50 * 1e3, p95 * 1e3, p99 * 1e3);
  std::printf("cache: %llu hits / %llu misses (%.1f%% hit ratio), %zu resident entries\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses), hit_ratio * 100.0, cache.entries);
  std::printf("steady-state RSS: %.1f MiB\n", rss);

  // Correctness gate: one stripe of tenants must agree with batch analyze.
  bool equivalent = true;
  {
    serve::ServiceConfig gate_config;
    gate_config.tenant.stream.reorder_horizon_hours = 0.0;
    gate_config.tenant.per_tenant_metrics = false;
    serve::FleetService gate(gate_config);
    LocalDriver gate_driver(gate);
    const auto feed = [&](const char* tenant, const std::string& row) {
      gate_driver.command(std::string("EVENT ") + tenant + " " + row);
    };
    const auto seal = [&](const char* tenant) {
      gate_driver.command(std::string("SEAL ") + tenant);
    };
    const auto query = [&](const char* tenant, const char* key) {
      auto response = gate.query(tenant, key);
      if (!response.ok()) {
        std::printf("FATAL: %s\n", response.error().to_string().c_str());
        std::exit(1);
      }
      return response.value().text;
    };
    gate_driver.command("OPEN gate-t2 tsubame-2");
    gate_driver.command("OPEN gate-t3 tsubame-3");
    equivalent &= replay_and_check("gate-t2", bench::bench_log(data::Machine::kTsubame2), feed,
                                   seal, query);
    equivalent &= replay_and_check("gate-t3", bench::bench_log(data::Machine::kTsubame3), feed,
                                   seal, query);
  }

  // After the fleet's histogram and RSS are read, with obs off, so the
  // restart leg shows in neither.
  obs::set_enabled(false);
  const RestartResult restart = run_restart(quick ? 20000 : 100000);

  bench::PerfJson perf("serve");
  perf.set("mode", std::string(quick ? "quick" : "fleet"));
  perf.set("tenants", static_cast<std::int64_t>(tenants));
  perf.set("events", static_cast<std::int64_t>(events));
  perf.set("wall_s", wall_s);
  perf.set("ingest_events_per_s", static_cast<double>(events) / wall_s);
  perf.set("queries", static_cast<std::int64_t>(queries));
  perf.set("query_p50_ms", p50 * 1e3);
  perf.set("query_p95_ms", p95 * 1e3);
  perf.set("query_p99_ms", p99 * 1e3);
  perf.set("cache_hit_ratio", hit_ratio);
  perf.set("rss_mib", rss);
  perf.set("analyze_equivalent", static_cast<std::int64_t>(equivalent ? 1 : 0));
  perf.set("restart_records", static_cast<std::int64_t>(restart.records));
  perf.set("restart_segments", static_cast<std::int64_t>(restart.segments));
  perf.set("restart_seal_p50_ms", restart.seal_p50_ms);
  perf.set("restart_seal_p99_ms", restart.seal_p99_ms);
  perf.set("restart_remount_s", restart.remount_s);
  perf.set("restart_equivalent", static_cast<std::int64_t>(restart.equivalent ? 1 : 0));
  perf.write();

  return equivalent && restart.equivalent ? 0 : 1;
}

int run_connect(const std::string& target) {
  std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::printf("usage: bench_serve --connect HOST:PORT\n");
    return 2;
  }
  RemoteDriver driver;
  if (!driver.connect_to(target.substr(0, colon), target.substr(colon + 1))) {
    std::printf("FATAL: cannot connect to %s\n", target.c_str());
    return 1;
  }
  std::printf("connected to %s: %s\n", target.c_str(), driver.simple("PING").c_str());

  const auto feed = [&](const char* tenant, const std::string& row) {
    driver.send_all(std::string("EVENT ") + tenant + " " + row + "\n");  // silent on success
  };
  const auto seal = [&](const char* tenant) {
    driver.simple(std::string("SEAL ") + tenant);
  };
  const auto query = [&](const char* tenant, const char* key) {
    return driver.framed(std::string("QUERY ") + tenant + " " + key);
  };

  driver.simple("OPEN smoke-t2 tsubame-2");
  driver.simple("OPEN smoke-t3 tsubame-3");
  bool equivalent = true;
  equivalent &= replay_and_check("smoke-t2", bench::bench_log(data::Machine::kTsubame2), feed,
                                 seal, query);
  equivalent &= replay_and_check("smoke-t3", bench::bench_log(data::Machine::kTsubame3), feed,
                                 seal, query);

  const std::string metrics = driver.framed("METRICS");
  std::printf("METRICS: %zu bytes of Prometheus exposition\n", metrics.size());
  driver.simple("QUIT");
  ::close(driver.fd);

  bench::PerfJson perf("serve_smoke");
  perf.set("mode", std::string("connect"));
  perf.set("target", target);
  perf.set("analyze_equivalent", static_cast<std::int64_t>(equivalent ? 1 : 0));
  perf.set("metrics_bytes", static_cast<std::int64_t>(metrics.size()));
  perf.write();
  return equivalent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t tenants = 1200;
  bool quick = false;
  std::string connect;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      tenants = 2;
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenants = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect = argv[++i];
    } else {
      std::printf("usage: bench_serve [--quick] [--tenants N] [--connect HOST:PORT]\n");
      return 2;
    }
  }

  bench::print_banner("bench_serve",
                      "fleet service throughput: multi-tenant ingest, epoch merges, and "
                      "cached queries (serve layer; DSN'21 pipeline as the workload)");
  if (!connect.empty()) return run_connect(connect);
  return run_fleet(tenants, quick);
}

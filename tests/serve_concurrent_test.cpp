// Concurrency and socket-level tests for the fleet service: racing
// ingest/seal/query threads against one FleetService (snapshot isolation
// means readers never see a torn view and the final state is exactly the
// batch answer), plus the TCP front-end: real connects, slow clients,
// and abrupt disconnects must never wedge the daemon or poison a tenant.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "analysis/study.h"
#include "data/log_io.h"
#include "report/study_text.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/generator.h"
#include "sim/tsubame_models.h"

namespace tsufail::serve {
namespace {

data::FailureLog generated(data::Machine machine) {
  const auto model = machine == data::Machine::kTsubame2 ? sim::tsubame2_model()
                                                         : sim::tsubame3_model();
  return sim::generate_log(model, 7).value();
}

std::vector<std::string> csv_rows(const data::FailureLog& log) {
  const std::string csv = data::write_log_csv(log);
  std::vector<std::string> rows;
  std::size_t at = 0;
  while (at < csv.size()) {
    const std::size_t end = csv.find('\n', at);
    rows.push_back(csv.substr(at, end - at));
    at = end == std::string::npos ? csv.size() : end + 1;
  }
  rows.erase(rows.begin());  // header
  return rows;
}

ServiceConfig replay_service_config() {
  ServiceConfig config;
  config.tenant.stream.reorder_horizon_hours = 0.0;
  config.tenant.per_tenant_metrics = false;
  config.tenant.alerts = false;
  return config;
}

std::string batch_study_text(const data::FailureLog& log) {
  // Through one CSV round-trip first — the tenants ingested parsed rows,
  // and write_log_csv keeps ttr_hours only to 4 decimals.
  const auto replayed = data::read_log_csv(data::write_log_csv(log)).value().log;
  return report::render_study_text(replayed, analysis::run_study(replayed, {}).value());
}

TEST(ServeConcurrent, RacingIngestSealAndQueryConvergeToTheBatchAnswer) {
  const data::FailureLog logs[] = {generated(data::Machine::kTsubame2),
                                   generated(data::Machine::kTsubame3)};
  const data::MachineSpec* specs[] = {&data::tsubame2_spec(), &data::tsubame3_spec()};
  constexpr std::size_t kTenants = 4;

  FleetService service(replay_service_config());
  std::vector<std::string> names;
  for (std::size_t t = 0; t < kTenants; ++t) {
    names.push_back("fuzz-" + std::to_string(t));
    ASSERT_TRUE(service.open_tenant(names[t], *specs[t % 2]).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> query_ok{0};
  std::vector<std::thread> threads;

  // Writers: one per tenant, full replay with a garbage row sprinkled in
  // every 16 rows (must error without hurting anything).
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const auto rows = csv_rows(logs[t % 2]);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(service.ingest_row(names[t], rows[i]).ok());
        if (i % 16 == 0) {
          EXPECT_FALSE(service.ingest_row(names[t], "garbage,row").ok());
        }
      }
    });
  }
  // Sealers: keep bumping epochs mid-ingest.
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      while (!done.load(std::memory_order_relaxed)) {
        EXPECT_TRUE(service.seal(names[t]).ok());
        std::this_thread::yield();
      }
    });
  }
  // Readers: hammer cached queries across all tenants.  Before the first
  // records land a query can return a legitimate domain error ("ttr" of
  // an empty snapshot); what must never happen is a crash or a torn
  // response, and successes must flow once data does.
  for (std::size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      const char* keys[] = {"summary", "categories", "ttr"};
      std::size_t i = r;
      while (!done.load(std::memory_order_relaxed)) {
        const auto response = service.query(names[i % kTenants], keys[i % 3]);
        if (response.ok()) {
          EXPECT_FALSE(response.value().text.empty());
          query_ok.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }

  for (std::size_t t = 0; t < kTenants; ++t) threads[t].join();  // writers
  // Every row is in and the sealers keep publishing epochs, so a reader
  // must get an answer: stop only once one has.  Stopping as soon as the
  // writers finish would let a fast host end the test before any reader
  // ran, and the query_ok check below would then fail on timing alone.
  while (query_ok.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  done.store(true, std::memory_order_relaxed);
  for (std::size_t t = kTenants; t < threads.size(); ++t) threads[t].join();
  EXPECT_GT(query_ok.load(), 0u);

  // Final seal, then every tenant must match the one-shot batch text.
  for (std::size_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(service.seal(names[t]).ok());
    const auto study = service.query(names[t], "study");
    ASSERT_TRUE(study.ok()) << study.error().to_string();
    EXPECT_EQ(study.value().text, batch_study_text(logs[t % 2])) << names[t];
    const auto stats = service.tenant_stats(names[t]);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().records, logs[t % 2].size());
    EXPECT_GT(stats.value().bad_rows, 0u);
  }
}

// --- TCP front-end --------------------------------------------------------

/// Minimal blocking client for the loopback server under test.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    connected_ =
        fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) == 0;
  }
  ~Client() { close(); }

  bool connected() const { return connected_; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Reads until `want` bytes arrived or the peer closed.
  std::string read_exactly(std::size_t want) {
    std::string got;
    char buffer[4096];
    while (got.size() < want) {
      const ssize_t n =
          ::recv(fd_, buffer, std::min(sizeof buffer, want - got.size()), 0);
      if (n <= 0) break;
      got.append(buffer, static_cast<std::size_t>(n));
    }
    return got;
  }

  /// Reads to EOF (peer close).
  std::string read_all() {
    std::string got;
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n <= 0) break;
      got.append(buffer, static_cast<std::size_t>(n));
    }
    return got;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(ServeServer, ServesManyClientsAndSurvivesAbruptDisconnects) {
  FleetService service(replay_service_config());
  auto server = Server::start(service, {});
  ASSERT_TRUE(server.ok()) << server.error().to_string();
  const std::uint16_t port = server.value()->port();
  ASSERT_NE(port, 0);

  {
    Client client(port);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send("PING\nOPEN t2 tsubame-2\n"));
    EXPECT_EQ(client.read_exactly(8), "OK pong\n");
    // Read the OPEN ack so the tenant is guaranteed live before the
    // next client asks about it; then vanish without QUIT.
    EXPECT_EQ(client.read_exactly(31), "OK tenant t2 machine Tsubame-2\n");
  }  // abrupt close without QUIT: must not wedge the server

  {
    // Slow client: one command dribbled in three writes.
    Client client(port);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send("PI"));
    ASSERT_TRUE(client.send("NG"));
    ASSERT_TRUE(client.send("\n"));
    EXPECT_EQ(client.read_exactly(8), "OK pong\n");
    ASSERT_TRUE(client.send("QUIT\n"));
    EXPECT_EQ(client.read_all(), "OK bye\n");  // server closes after QUIT
  }

  {
    // A half-line followed by an abrupt disconnect: the partial command
    // must simply be dropped.
    Client client(port);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send("EVENT t2 tsubame-2,2012-"));
  }

  {
    // The service is unharmed: the tenant the first client opened is
    // still there and still empty (the torn EVENT never landed).
    Client client(port);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send("STATS t2\nQUIT\n"));
    const std::string reply = client.read_all();
    EXPECT_NE(reply.find("offered: 0\n"), std::string::npos) << reply;
    EXPECT_NE(reply.find("OK bye\n"), std::string::npos);
  }

  {
    // HTTP over the same port.
    Client client(port);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send("GET /tenants HTTP/1.0\r\n\r\n"));
    const std::string reply = client.read_all();
    EXPECT_EQ(reply.compare(0, 15, "HTTP/1.0 200 OK"), 0) << reply.substr(0, 40);
    EXPECT_NE(reply.find("t2\n"), std::string::npos);
  }

  server.value()->stop();  // joins every thread; second stop is a no-op
  server.value()->stop();
}

TEST(ServeServer, StopUnblocksConnectedIdleClients) {
  FleetService service(replay_service_config());
  auto server = Server::start(service, {});
  ASSERT_TRUE(server.ok());
  Client idle(server.value()->port());
  ASSERT_TRUE(idle.connected());
  // stop() must shut the connection down even though the client never
  // sends a byte; read_all then sees EOF instead of blocking forever.
  std::thread stopper([&] { server.value()->stop(); });
  EXPECT_EQ(idle.read_all(), "");
  stopper.join();
}

}  // namespace
}  // namespace tsufail::serve

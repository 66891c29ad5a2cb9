// lsdbench verify — the durable-state check of the churn workload.
//
// Asks the running server to `save` its pinned epoch to --snapshot
// (PREFIX.snap), then compares the snapshot's asserted facts with what
// the run implies: the dataset as lsd_serve loads it, plus every write
// the load generator saw acked as "added", minus every retract acked as
// "removed" (--writes-log). Writes whose answer never arrived may
// land either way and are left out of the comparison. Every acked
// write must be there and no fact the run never sent may appear.
//
//   lsdbench verify --port P --dir DIR --writes-log FILE --snapshot PREFIX
//                   --out FILE
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "server/protocol.h"
#include "store/persistence.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace lsdbench {
namespace {

using NamedFact = std::tuple<std::string, std::string, std::string>;

std::set<NamedFact> Names(const lsd::FactStore& store) {
  std::set<NamedFact> out;
  const lsd::EntityTable& e = store.entities();
  store.base().ForEach(lsd::Pattern(), [&](const lsd::Fact& f) {
    out.emplace(e.Name(f.source), e.Name(f.relationship), e.Name(f.target));
    return true;
  });
  return out;
}

// Sends one text command and returns the OK payload.
lsd::StatusOr<std::string> TextCall(uint16_t port, const std::string& line) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return lsd::Status::IoError("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return lsd::Status::IoError("connect failed");
  }
  lsd::LineReader reader(fd);
  auto greeting = lsd::ReadResponse(&reader);
  lsd::Status sent = greeting.ok() ? lsd::WriteAll(fd, line + "\n")
                                   : greeting.status();
  lsd::StatusOr<lsd::WireResponse> response =
      sent.ok() ? lsd::ReadResponse(&reader)
                : lsd::StatusOr<lsd::WireResponse>(sent);
  ::close(fd);
  if (!response.ok()) return response.status();
  if (!response->ok) return lsd::Status::Internal("ERR " + response->error);
  return response->payload;
}

}  // namespace

int VerifyMain(const Args& args) {
  const uint16_t port = static_cast<uint16_t>(args.Num("port", 0));
  const std::string dir = args.Str("dir");
  const std::string log = args.Str("writes-log");
  const std::string snapshot = args.Str("snapshot");
  const std::string out_path = args.Str("out");
  if (port == 0 || dir.empty() || snapshot.empty() || out_path.empty()) {
    std::fprintf(stderr, "verify: --port P --dir DIR --writes-log FILE "
                         "--snapshot PREFIX --out FILE\n");
    return 2;
  }

  std::string error;
  auto saved = TextCall(port, "save " + snapshot);
  if (!saved.ok()) error = "save: " + saved.status().ToString();

  // Expected: the dataset exactly as the server loaded it ...
  lsd::LooseDb base;
  lsd::Status loaded = base.LoadTextFile(dir + "/data.lsd");
  if (!loaded.ok() && error.empty()) error = loaded.ToString();
  std::set<NamedFact> expected = Names(base.store());
  std::set<NamedFact> unknown;
  // ... plus every acked write.
  std::ifstream in(log);
  std::string line;
  size_t acked = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind, s, r, t, effect;
    if (!(fields >> kind >> s >> r >> t >> effect)) continue;
    NamedFact f(s, r, t);
    if (effect == "added") {
      expected.insert(f);
      ++acked;
    } else if (effect == "removed") {
      expected.erase(f);
      ++acked;
    } else if (effect == "missing") {
      ++acked;  // raced ahead of its assert: the assert decides
    } else {
      unknown.insert(f);
    }
  }

  size_t missing = 0, unexpected = 0, facts = 0;
  if (error.empty()) {
    lsd::FactStore store;
    std::vector<lsd::Rule> rules;
    lsd::Status read = lsd::LoadSnapshot(snapshot + ".snap", &store, &rules);
    if (!read.ok()) {
      error = "snapshot: " + read.ToString();
    } else {
      std::set<NamedFact> actual = Names(store);
      facts = actual.size();
      for (const NamedFact& f : expected) {
        if (!actual.count(f) && !unknown.count(f)) ++missing;
      }
      for (const NamedFact& f : actual) {
        if (!expected.count(f) && !unknown.count(f)) ++unexpected;
      }
    }
  }

  JsonObject out;
  out.Bool("ok", error.empty() && missing == 0 && unexpected == 0)
      .Str("error", error)
      .Int("facts", static_cast<int64_t>(facts))
      .Int("acked_writes", static_cast<int64_t>(acked))
      .Int("unknown_writes", static_cast<int64_t>(unknown.size()))
      .Int("missing", static_cast<int64_t>(missing))
      .Int("unexpected", static_cast<int64_t>(unexpected));
  lsd::Status w = WriteFile(out_path, out.Render() + "\n");
  return w.ok() ? 0 : 1;
}

}  // namespace lsdbench

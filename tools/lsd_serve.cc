// lsd_serve — the multi-session browsing server.
//
// Serves the lsd_shell command grammar over TCP (see
// src/server/protocol.h for the framing). Each connection gets its own
// session with a private navigation trail and hypothetical overlay;
// asserts/retracts/rules commit through the shared store and become
// visible to every session at its next request.
//
//   lsd_serve [--port N] [--max-sessions N] [--seed campus|music|org]
//             [--load FILE] [--request-timeout-ms N]
//             [--db PREFIX] [--sync fsync|flush] [--checkpoint-bytes N]
//             [--repl-port N]
//             [--follow HOST:PORT] [--scratch PREFIX]
//             [--max-lag-ms N] [--max-lag-bytes N]
//             [--compact-off] [--compact-min-runs N]
//             [--compact-ratio F] [--compact-min-overlay-bytes N]
//             [--compact-poll-ms N] [--compact-backpressure-runs N]
//
// --db attaches durability: <PREFIX>.snap + <PREFIX>.wal.NNNNNN are
// recovered on startup and every commit group is batch-appended (one
// fsync per group at --sync fsync) before its epoch publishes. --seed
// and --load apply only on a first boot, as one checkpoint
// (SharedStore::Seed): a kill -9 leaves the whole seed or none of it.
//
// Background compaction is ON by default (primaries and followers both
// compact their own tiers; compaction ships no WAL bytes): a merge
// thread folds the closure's accumulated segments into one CSR
// generation per tier whenever --compact-min-runs segments pile up or
// the overlay outgrows --compact-ratio of the frozen bytes. Readers are
// never stalled; writers see at most --compact-backpressure-runs-deep
// backlogs before brief commit-side sleeps. --compact-off disables.
//
// --repl-port makes a durable primary ship its WAL to followers on
// that port. --follow runs this server as a read-only follower of the
// primary's replication port: reads serve from the replica (rejected
// with "ERR stale" past --max-lag-ms/--max-lag-bytes; 0 = unbounded),
// mutations are rejected, and staleness shows up under `stats`.
//
// Try it with nc:  printf 'probe (STUDENT, TAKE, MATH)\nquit\n' | nc 127.0.0.1 7420

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <malloc.h>
#include <unistd.h>

#include "replication/log_shipper.h"
#include "replication/monitor.h"
#include "replication/replication_client.h"
#include "server/server.h"
#include "server/shared_store.h"
#include "workload/music_domain.h"
#include "workload/org_domain.h"
#include "workload/university_domain.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--max-sessions N] "
               "[--seed campus|music|org] [--load FILE] "
               "[--request-timeout-ms N] [--db PREFIX] "
               "[--sync fsync|flush] [--checkpoint-bytes N] "
               "[--repl-port N] [--follow HOST:PORT] [--scratch PREFIX] "
               "[--max-lag-ms N] [--max-lag-bytes N] "
               "[--compact-off] [--compact-min-runs N] [--compact-ratio F] "
               "[--compact-min-overlay-bytes N] [--compact-poll-ms N] "
               "[--compact-backpressure-runs N]\n",
               argv0);
  return 2;
}

// "HOST:PORT" -> (host, port); false on malformed input.
bool ParseHostPort(const std::string& spec, std::string* host,
                   uint16_t* port) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return false;
  }
  long p = std::atol(spec.c_str() + colon + 1);
  if (p <= 0 || p > 65535) return false;
  *host = spec.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  lsd::ServerOptions options;
  options.port = 7420;
  std::string seed;
  std::string load_path;
  std::string db_prefix;
  lsd::SharedStoreDurability durability;
  uint16_t repl_port = 0;
  bool ship = false;
  std::string follow_spec;
  std::string scratch_prefix;
  lsd::ReplicationBounds bounds;
  bool compact = true;
  lsd::CompactionOptions compaction;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--max-sessions") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_sessions = static_cast<size_t>(std::atol(v));
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      seed = v;
    } else if (arg == "--load") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      load_path = v;
    } else if (arg == "--request-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.request_timeout = std::chrono::milliseconds(std::atol(v));
    } else if (arg == "--db") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      db_prefix = v;
    } else if (arg == "--sync") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (std::strcmp(v, "fsync") == 0) {
        durability.sync = lsd::WalSync::kFsync;
      } else if (std::strcmp(v, "flush") == 0) {
        durability.sync = lsd::WalSync::kFlush;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--checkpoint-bytes") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      durability.checkpoint_bytes = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--repl-port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      repl_port = static_cast<uint16_t>(std::atoi(v));
      ship = true;  // port 0 = ephemeral, still ships
    } else if (arg == "--follow") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      follow_spec = v;
    } else if (arg == "--scratch") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      scratch_prefix = v;
    } else if (arg == "--max-lag-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      bounds.max_lag_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--max-lag-bytes") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      bounds.max_lag_bytes = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--compact-off") {
      compact = false;
    } else if (arg == "--compact-min-runs") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      compaction.min_runs = static_cast<size_t>(std::atol(v));
    } else if (arg == "--compact-ratio") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      compaction.overlay_ratio = std::atof(v);
    } else if (arg == "--compact-min-overlay-bytes") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      compaction.min_overlay_bytes = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--compact-poll-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      compaction.poll_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--compact-backpressure-runs") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      compaction.backpressure_runs = static_cast<size_t>(std::atol(v));
    } else {
      return Usage(argv[0]);
    }
  }

  const bool follower = !follow_spec.empty();
  if (follower && (!db_prefix.empty() || ship || !seed.empty() ||
                   !load_path.empty())) {
    // A follower's state is the primary's, replayed — local durability,
    // shipping, or seeding would fork it.
    std::fprintf(stderr,
                 "--follow excludes --db/--repl-port/--seed/--load\n");
    return 2;
  }
  if (ship && db_prefix.empty()) {
    std::fprintf(stderr, "--repl-port needs --db (the WAL is what ships)\n");
    return 2;
  }

  const auto setup_start = std::chrono::steady_clock::now();
  lsd::SharedStore store;
  if (!db_prefix.empty()) {
    lsd::Status opened = store.OpenDurable(db_prefix, durability);
    if (!opened.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
    std::printf("recovered %s: %s\n", db_prefix.c_str(),
                store.last_recovery().ToString().c_str());
    // Seed only on the very first boot: a restart must not re-apply
    // the seed on top of its own snapshot/WAL replay.
    if (store.last_recovery().snapshot_loaded ||
        store.last_recovery().records_replayed > 0) {
      seed.clear();
      load_path.clear();
    }
  }
  if (!seed.empty() || !load_path.empty()) {
    auto seeded = store.Seed([&](lsd::LooseDb& db) -> lsd::Status {
      if (seed == "campus") {
        lsd::workload::BuildCampusDomain(&db);
      } else if (seed == "music") {
        lsd::workload::BuildMusicDomain(&db);
      } else if (seed == "org") {
        (void)lsd::workload::BuildOrgDomain(&db, lsd::workload::OrgOptions());
      } else if (!seed.empty()) {
        return lsd::Status::InvalidArgument("unknown seed: " + seed);
      }
      if (!load_path.empty()) {
        return db.LoadTextFile(load_path);
      }
      return lsd::Status::OK();
    });
    if (!seeded.ok()) {
      std::fprintf(stderr, "seed failed: %s\n",
                   seeded.status().ToString().c_str());
      return 1;
    }
  }

  // Loading and the closure fixpoint free far more heap than the first
  // epoch keeps (per-worker candidate buffers, materialized runs), and
  // glibc holds freed chunks in its arenas; hand them back before
  // serving. On browse-zipf this takes resident memory after start-up
  // from ~45 to ~31 MiB.
  malloc_trim(0);
  const double setup_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - setup_start)
                              .count();

  // Primary side: ship the WAL to followers.
  lsd::LogShipperOptions ship_options;
  ship_options.port = repl_port;
  lsd::LogShipper shipper(&store, ship_options);
  if (ship) {
    lsd::Status shipping = shipper.Start();
    if (!shipping.ok()) {
      std::fprintf(stderr, "replication start failed: %s\n",
                   shipping.ToString().c_str());
      return 1;
    }
    std::printf("shipping WAL on 127.0.0.1:%u\n", shipper.port());
  }

  // Follower side: replay the primary's log, gate reads on staleness.
  lsd::ReplicationMonitor monitor(bounds);
  lsd::ReplicationClientOptions follow_options;
  std::unique_ptr<lsd::ReplicationClient> follow_client;
  if (follower) {
    if (!ParseHostPort(follow_spec, &follow_options.host,
                       &follow_options.port)) {
      std::fprintf(stderr, "bad --follow spec: %s\n", follow_spec.c_str());
      return 2;
    }
    follow_options.scratch_prefix =
        scratch_prefix.empty()
            ? "/tmp/lsd_follower." + std::to_string(::getpid())
            : scratch_prefix;
    follow_client = std::make_unique<lsd::ReplicationClient>(
        &store, &monitor, follow_options);
    lsd::Status following = follow_client->Start();
    if (!following.ok()) {
      std::fprintf(stderr, "follow failed: %s\n",
                   following.ToString().c_str());
      return 1;
    }
    options.replication = &monitor;
    std::printf("following %s:%u (max lag %llu ms / %llu bytes; 0 = "
                "unbounded)\n",
                follow_options.host.c_str(), follow_options.port,
                static_cast<unsigned long long>(bounds.max_lag_ms),
                static_cast<unsigned long long>(bounds.max_lag_bytes));
  }

  if (compact) {
    // Primaries and followers alike: compaction is local storage
    // maintenance and never touches the WAL stream.
    lsd::Status compacting = store.EnableCompaction(compaction);
    if (!compacting.ok()) {
      std::fprintf(stderr, "compaction start failed: %s\n",
                   compacting.ToString().c_str());
      return 1;
    }
  }

  lsd::LsdServer server(&store, options);
  lsd::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  // The cold start, explained: the facts in the first served epoch and
  // the time to get them there (recovery, load, clone, lattice — all
  // but the fixpoint), then the closure fixpoint on its own.
  const lsd::EpochPtr first = store.snapshot();
  const lsd::ClosureStats* stats = first->db().closure_stats();
  const lsd::ClosureStats closure =
      stats != nullptr ? *stats : lsd::ClosureStats();
  std::printf("start-up: %zu facts loaded in %.1f ms; closure %zu rounds, "
              "%zu derived facts, %zu workers, %.1f ms\n",
              first->db().store().size(), setup_ms - closure.ms,
              closure.rounds, closure.derived_facts, closure.workers,
              closure.ms);
  std::printf("lsd_serve listening on 127.0.0.1:%u (max %zu sessions, "
              "epoch %llu, %zu facts)\n",
              server.port(), options.max_sessions,
              static_cast<unsigned long long>(store.snapshot()->sequence()),
              store.snapshot()->db().store().size());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    struct timespec ts = {0, 200 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  std::printf("shutting down (%llu requests served)\n",
              static_cast<unsigned long long>(server.requests_served()));
  server.Stop();
  if (follow_client != nullptr) follow_client->Stop();
  if (ship) shipper.Stop();
  return 0;
}

// bench_recovery — recovery time versus log size, with and without
// checkpoints.
//
// For each record count the bench builds a database twice: once as a
// pure WAL (checkpoint_bytes = 0, so Open() replays every record) and
// once with auto-checkpointing (replay is bounded by the records since
// the last checkpoint; the snapshot carries the rest). It then measures
// cold Open() time (best of three) and reports what recovery did.
//
// With --retracts, a second table times recovery of a checkpointed
// store followed by a log of single-fact retracts (each its own commit
// record): the snapshot's facts load as one large segment, so this is
// the replay path where retracts must be batched into runs.
//
// Not a google-benchmark suite: each measurement is one cold Open()
// against files just written, and the interesting output is the
// recovery-stats breakdown next to the timing, not iteration throughput.
//
//   bench_recovery [--records 1000,4000,16000] [--json FILE]
//                  [--retracts 1000,5000 [--facts 49000]]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/loose_db.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct RunResult {
  size_t records = 0;
  bool checkpoints = false;
  double open_ms = 0;
  uint64_t wal_bytes = 0;
  uint64_t snapshot_bytes = 0;
  size_t records_replayed = 0;
  size_t segments_replayed = 0;
  bool snapshot_loaded = false;
};

lsd::LooseDbOptions Options(bool checkpoints) {
  lsd::LooseDbOptions options;
  options.wal_segment_bytes = 1ull << 20;
  options.checkpoint_bytes = checkpoints ? 64ull << 10 : 0;
  return options;
}

// Synthetic unique facts: ~30 bytes of WAL record each, a fresh entity
// pair per fact so replay exercises interning too.
void Fill(lsd::LooseDb& db, size_t records) {
  for (size_t i = 0; i < records; ++i) {
    db.Assert("E-" + std::to_string(i), "REL-" + std::to_string(i % 16),
              "V-" + std::to_string(i));
  }
}

RunResult RunOne(const fs::path& dir, size_t records, bool checkpoints) {
  const std::string prefix =
      (dir / (std::string(checkpoints ? "ckpt" : "wal") + "-" +
              std::to_string(records)))
          .string();
  {
    lsd::LooseDb db(Options(checkpoints));
    lsd::Status opened = db.Open(prefix);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n", opened.ToString().c_str());
      std::exit(1);
    }
    Fill(db, records);
  }

  RunResult result;
  result.records = records;
  result.checkpoints = checkpoints;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(fs::path(prefix).filename().string(), 0) != 0) continue;
    if (name.find(".wal.") != std::string::npos) {
      result.wal_bytes += entry.file_size();
    } else if (name.size() > 5 &&
               name.compare(name.size() - 5, 5, ".snap") == 0) {
      result.snapshot_bytes += entry.file_size();
    }
  }

  result.open_ms = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    lsd::LooseDb db(Options(checkpoints));
    auto t0 = Clock::now();
    lsd::Status opened = db.Open(prefix);
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
    if (!opened.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   opened.ToString().c_str());
      std::exit(1);
    }
    if (ms < result.open_ms) result.open_ms = ms;
    const lsd::RecoveryStats& stats = db.last_recovery();
    result.records_replayed = stats.records_replayed;
    result.segments_replayed = stats.segments_replayed;
    result.snapshot_loaded = stats.snapshot_loaded;
  }
  return result;
}

// Recovery of `facts` checkpointed facts followed by `retracts` logged
// single-fact retracts.
struct RetractResult {
  size_t facts = 0;
  size_t retracts = 0;
  double open_ms = 0;
  size_t records_replayed = 0;
};

RetractResult RunRetracts(const fs::path& dir, size_t facts,
                          size_t retracts) {
  const std::string prefix =
      (dir / ("retract-" + std::to_string(retracts))).string();
  {
    lsd::LooseDb db(Options(false));
    lsd::Status opened = db.Open(prefix);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n", opened.ToString().c_str());
      std::exit(1);
    }
    Fill(db, facts);
    lsd::Status checkpointed = db.Checkpoint();
    if (!checkpointed.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n",
                   checkpointed.ToString().c_str());
      std::exit(1);
    }
    // Spread over the whole fact set.
    const size_t stride = std::max<size_t>(1, facts / retracts);
    for (size_t i = 0, n = 0; i < facts && n < retracts; i += stride, ++n) {
      lsd::Status s = db.Retract("E-" + std::to_string(i),
                                 "REL-" + std::to_string(i % 16),
                                 "V-" + std::to_string(i));
      if (!s.ok()) {
        std::fprintf(stderr, "retract failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
  }
  RetractResult result;
  result.facts = facts;
  result.retracts = retracts;
  result.open_ms = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    lsd::LooseDb db(Options(false));
    auto t0 = Clock::now();
    lsd::Status opened = db.Open(prefix);
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
    if (!opened.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   opened.ToString().c_str());
      std::exit(1);
    }
    result.open_ms = std::min(result.open_ms, ms);
    result.records_replayed = db.last_recovery().records_replayed;
  }
  return result;
}

std::vector<size_t> ParseList(const std::string& list) {
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    out.push_back(static_cast<size_t>(
        std::atoll(list.substr(pos, comma - pos).c_str())));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> record_counts = {1000, 4000, 16000};
  std::vector<size_t> retract_counts;
  size_t retract_facts = 49000;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--records" && i + 1 < argc) {
      record_counts = ParseList(argv[++i]);
    } else if (arg == "--retracts" && i + 1 < argc) {
      retract_counts = ParseList(argv[++i]);
    } else if (arg == "--facts" && i + 1 < argc) {
      retract_facts = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--records 1000,4000,16000] [--json FILE] "
                   "[--retracts 1000,5000 [--facts 49000]]\n",
                   argv[0]);
      return 2;
    }
  }

  std::error_code ec;
  fs::path dir =
      fs::temp_directory_path() / ("lsd_bench_recovery_" +
                                   std::to_string(::getpid()));
  fs::create_directories(dir, ec);

  std::printf("# bench_recovery: cold Open() time (best of 3) vs log "
              "size, checkpoints off/on\n");
  std::printf("%9s %6s %10s %10s %10s %10s %9s\n", "records", "ckpt",
              "open_ms", "wal_bytes", "snap_bytes", "replayed", "segments");

  std::vector<RunResult> results;
  for (size_t records : record_counts) {
    for (bool checkpoints : {false, true}) {
      RunResult r = RunOne(dir, records, checkpoints);
      results.push_back(r);
      std::printf("%9zu %6s %10.2f %10llu %10llu %10zu %9zu\n", r.records,
                  r.checkpoints ? "on" : "off", r.open_ms,
                  static_cast<unsigned long long>(r.wal_bytes),
                  static_cast<unsigned long long>(r.snapshot_bytes),
                  r.records_replayed, r.segments_replayed);
    }
  }

  if (!retract_counts.empty()) {
    std::printf("# checkpointed facts + logged single retracts: cold Open() "
                "time (best of 3)\n");
    std::printf("%9s %9s %10s %10s\n", "facts", "retracts", "open_ms",
                "replayed");
    for (size_t retracts : retract_counts) {
      RetractResult r = RunRetracts(dir, retract_facts, retracts);
      std::printf("%9zu %9zu %10.2f %10zu\n", r.facts, r.retracts,
                  r.open_ms, r.records_replayed);
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"comment\": \"bench_recovery: cold Open() recovery "
           "time (best of 3) vs WAL size, with checkpoint_bytes=0 vs "
           "64KiB; regenerate with tools/bench_json.sh. With "
           "checkpoints the replayed-record count (and so recovery "
           "time) stays bounded while the pure-WAL variant replays "
           "everything.\",\n  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"records\": %zu, \"checkpoints\": %s, "
          "\"open_ms\": %.2f, \"wal_bytes\": %llu, "
          "\"snapshot_bytes\": %llu, \"records_replayed\": %zu, "
          "\"segments_replayed\": %zu, \"snapshot_loaded\": %s}%s\n",
          r.records, r.checkpoints ? "true" : "false", r.open_ms,
          static_cast<unsigned long long>(r.wal_bytes),
          static_cast<unsigned long long>(r.snapshot_bytes),
          r.records_replayed, r.segments_replayed,
          r.snapshot_loaded ? "true" : "false",
          i + 1 < results.size() ? "," : "");
      out << buf;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  fs::remove_all(dir, ec);
  return 0;
}

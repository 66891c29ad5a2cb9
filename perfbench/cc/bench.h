// Shared pieces of lsdbench, the repository benchmark's C++ side: the
// request-stream file format, argument parsing, percentiles, a tiny
// JSON writer, and the parser for the server's `stats` verb.
//
// The benchmark's subcommands (see lsdbench.cc):
//   gen     seeded dataset (.lsd) + request stream for one workload
//   seed    the dataset into a durable server through its write path
//   drive   open-loop then closed-loop load over 4 pipelined binary
//           connections to a running lsd_serve, with answer checks
//   verify  durable-state check: the server's asserted facts must equal
//           the dataset plus every acked write
//   replay  the same stream in-process against the library, with spans
//           around each call into a layer (the traced run)
#ifndef LSD_PERFBENCH_BENCH_H_
#define LSD_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "server/shared_store.h"
#include "util/status.h"

namespace lsdbench {

// ---- Request stream -------------------------------------------------------
//
// One request per line, tab-separated:
//   R <tag> <command line>   read verb in the lsd_shell grammar
//   A <tag> <S> <R> <T>      assert (sent as a one-op kMutation frame)
//   D <tag> <S> <R> <T>      retract of a fact asserted earlier
// <tag> is the read's verb class (nav, query, join, probe, near, dist,
// golden) or "write"; a trailing '+' marks a read whose answer no
// write of the stream can change, so it is checkable against the
// static dataset even in the churn workload.
struct Request {
  char kind = 'R';
  std::string tag;
  bool stable = true;
  std::string text;  // R: command line; A/D: "S R T"
  std::string s, r, t;

  bool is_read() const { return kind == 'R'; }
};

lsd::Status WriteStream(const std::string& path,
                        const std::vector<Request>& requests);
lsd::StatusOr<std::vector<Request>> ReadStream(const std::string& path);

// ---- Arguments ------------------------------------------------------------

// "--key value" pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string Str(const std::string& key, const std::string& def = "") const;
  double Num(const std::string& key, double def) const;

 private:
  std::map<std::string, std::string> values_;
};

// ---- Timing and statistics ------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q);

// Harrell-Davis quantile of `v` (sorted in place): a weighted mean of
// the order statistics around rank q*n, with the Beta weights taken in
// their normal approximation. Where a latency distribution is a mixture
// of request classes, a single order statistic jumps between classes as
// the sample moves; this estimate moves smoothly. 0 when empty.
double SmoothQuantile(std::vector<double>* v, double q);

// ---- JSON output ----------------------------------------------------------

// Flat object writer: numbers, strings, bools and nested raw JSON.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

lsd::Status WriteFile(const std::string& path, const std::string& data);

// ---- Server counters ------------------------------------------------------

// The counters the `stats` verb prints, by name: planner_hits,
// planner_misses, groups, slots_acked, slots_rejected, wal_records,
// wal_batches, fsyncs, merges, merge_aborts, merge_failures,
// facts_merged, bytes_merged, backpressure_hits, cancelled,
// degrade_episodes, asserted_facts, derived_facts, commits.
std::map<std::string, double> ParseStats(const std::string& text);

// ---- Reference store ------------------------------------------------------

// The churn workload's set-up: the facts of a .lsd file, in file order,
// as kMutation batch payloads of at most `batch` facts, then its rule
// lines verbatim (the server's rule / integrity verbs take them as is).
inline constexpr size_t kSeedBatch = 4096;
struct SeedPlan {
  std::vector<std::string> batches;
  std::vector<size_t> batch_sizes;
  std::vector<std::string> rules;
};
lsd::StatusOr<SeedPlan> ReadSeedPlan(const std::string& lsd_path,
                                     size_t batch);

// Loads the dataset into `store` the way the workload's server got it:
// `lsd_serve --load` (one commit of the file) or, when `seeded`, the
// SeedPlan replayed through a ServerSession — the same commits, in the
// same order, so entity ids (and with them answer row order) agree.
lsd::Status LoadReference(const std::string& lsd_path, bool seeded,
                          lsd::SharedStore* store);

// Subcommands.
int GenMain(const Args& args);
int DriveMain(const Args& args);
int SeedMain(const Args& args);
int VerifyMain(const Args& args);
int ReplayMain(const Args& args);

}  // namespace lsdbench

#endif  // LSD_PERFBENCH_BENCH_H_

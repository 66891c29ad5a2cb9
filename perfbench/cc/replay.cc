// lsdbench replay — the traced run: the workload's request stream
// replayed in-process, single-threaded, against the library's public
// functions, with a span around every call into a layer. Nothing inside
// src/ is instrumented; each layer is timed from outside.
//
// Per request: a root span, then the server layer's own entry point
// (ServerSession::Execute for a read, SharedStore::Commit for a write),
// then the same work again through the lower layers' entry points, each
// in its own span — LooseDb::Parse / Run (query), Navigate / Nearby /
// SemanticDistance / Probe (browse), and for a write CloneInto (store)
// and Warm (rules) on a clone of the pinned tip with the write applied,
// which is what a commit does inside. The server layer's self time is
// its span minus that decomposition. One-off spans time set-up (closure
// of a freshly loaded database), a synchronous compaction and, for a
// durable store, recovery.
//
//   lsdbench replay --dir DIR --seconds S --out FILE --spans FILE
//                   [--durable PREFIX]
//
// Spans are kept in memory and written to --spans at the end as CSV:
// id,parent,request,name,start_ns,end_ns.
#include <cstdio>
#include <map>
#include <sstream>

#include "bench.h"
#include "browse/probing.h"
#include "server/session.h"

namespace lsdbench {
namespace {

constexpr uint64_t kNoRequest = UINT64_MAX;

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // -1 = root
  uint64_t request;
};

class Tracer {
 public:
  int32_t Begin(const char* name, int32_t parent, uint64_t request) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[id].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (us) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
    }
    return out;
  }

  lsd::Status Write(const std::string& path) const {
    std::string out = "id,parent,request,name,start_ns,end_ns\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += std::to_string(i) + "," + std::to_string(s.parent) + "," +
             (s.request == kNoRequest ? std::string("-")
                                      : std::to_string(s.request)) +
             "," + s.name + "," + std::to_string(s.start_ns) + "," +
             std::to_string(s.end_ns) + "\n";
    }
    return WriteFile(path, out);
  }

 private:
  std::vector<Span> spans_;
};

// Times `fn` inside a span.
template <typename Fn>
auto Traced(Tracer* t, const char* name, int32_t parent, uint64_t request,
            Fn&& fn) {
  const int32_t id = t->Begin(name, parent, request);
  auto result = fn();
  t->End(id);
  return result;
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

// What the decomposition of the reads measured, beyond span times.
struct Counters {
  double query_steps = 0, query_rows = 0;
  double nav_steps = 0, navs = 0;
  double probes = 0, probe_queries = 0, probe_successes = 0;
  double plan_hits = 0, plan_lookups = 0;
  size_t reads = 0, writes = 0, failed = 0;
};

std::pair<std::string, std::string> SplitVerb(const std::string& line) {
  const size_t sp = line.find(' ');
  if (sp == std::string::npos) return {line, ""};
  return {line.substr(0, sp), line.substr(sp + 1)};
}

// Re-executes a read through the query and browse layers' entry points.
lsd::Status Decompose(lsd::LooseDb& db, const Request& req, size_t index,
                      int32_t root, Tracer* t, Counters* c) {
  auto [verb, rest] = SplitVerb(req.text);
  lsd::QueryBudget budget;
  if (verb == "query" || verb == "probe") {
    auto q = Traced(t, "query.parse", root, index,
                    [&] { return db.Parse(rest); });
    LSD_RETURN_IF_ERROR(q.status());
    if (verb == "query") {
      lsd::EvalOptions options;
      options.budget = &budget;
      auto r = Traced(t, "query.run", root, index,
                      [&] { return db.Run(*q, options); });
      LSD_RETURN_IF_ERROR(r.status());
      c->query_steps += static_cast<double>(budget.steps());
      c->query_rows += static_cast<double>(r->rows.size());
    } else {
      lsd::ProbeOptions options;
      options.budget = &budget;
      auto p = Traced(t, "browse.probe", root, index,
                      [&] { return db.Probe(*q, options); });
      LSD_RETURN_IF_ERROR(p.status());
      c->probes += 1;
      c->probe_queries += static_cast<double>(p->queries_attempted);
      c->probe_successes +=
          (p->original_succeeded || !p->successes.empty()) ? 1 : 0;
    }
  } else if (verb == "nav") {
    auto hood = Traced(t, "browse.nav", root, index,
                       [&] { return db.Navigate(rest, &budget); });
    LSD_RETURN_IF_ERROR(hood.status());
    c->navs += 1;
    c->nav_steps += static_cast<double>(budget.steps());
  } else if (verb == "near") {
    std::istringstream args(rest);
    std::string entity;
    int radius = 2;
    args >> entity >> radius;
    LSD_RETURN_IF_ERROR(Traced(t, "browse.near", root, index, [&] {
                          return db.Nearby(entity, radius, &budget);
                        }).status());
  } else if (verb == "dist") {
    std::istringstream args(rest);
    std::string a, b;
    args >> a >> b;
    LSD_RETURN_IF_ERROR(Traced(t, "browse.dist", root, index, [&] {
                          return db.SemanticDistance(a, b, 4, &budget);
                        }).status());
  }
  return lsd::Status::OK();
}

// The one-op mutation a write request stands for, applied to `db`
// exactly as the server's batch path does.
lsd::Status ApplyWrite(const Request& req, lsd::LooseDb& db) {
  if (req.kind == 'A') {
    db.Assert(lsd::Fact(db.entities().Intern(req.s),
                        db.entities().Intern(req.r),
                        db.entities().Intern(req.t)));
    return lsd::Status::OK();
  }
  auto s = db.entities().Lookup(req.s);
  auto r = db.entities().Lookup(req.r);
  auto t = db.entities().Lookup(req.t);
  if (s.has_value() && r.has_value() && t.has_value()) {
    db.Retract(lsd::Fact(*s, *r, *t));
  }
  return lsd::Status::OK();
}

// Clone + apply + warm on a private copy of the tip (what a commit does
// inside), then the commit itself.
lsd::Status ReplayWrite(lsd::SharedStore* store, const Request& req,
                        size_t index, int32_t root, Tracer* t) {
  lsd::EpochPtr tip = store->snapshot();
  lsd::LooseDbOptions options = store->options();
  options.standard_rules = false;
  lsd::LooseDb clone(options);
  LSD_RETURN_IF_ERROR(Traced(t, "store.clone", root, index, [&] {
    return tip->db().CloneInto(&clone);
  }));
  LSD_RETURN_IF_ERROR(ApplyWrite(req, clone));
  LSD_RETURN_IF_ERROR(
      Traced(t, "rules.warm", root, index, [&] { return clone.Warm(); }));
  return Traced(t, "server.commit", root, index, [&] {
           return store->Commit(
               [&](lsd::LooseDb& db) { return ApplyWrite(req, db); });
         }).status();
}

// Mean self time per request of each layer over the request spans. The
// lower layers' spans are leaves; the server layer's opaque entry point
// is charged only what its decomposition (the other spans of the same
// request) does not account for.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans,
                                        size_t requests) {
  std::map<std::string, double> self;
  std::map<uint64_t, double> server, lower;
  for (const Span& s : spans) {
    if (s.request == kNoRequest || s.parent < 0) continue;
    const double us = (s.end_ns - s.start_ns) / 1e3;
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    if (layer == "server") {
      server[s.request] += us;
    } else {
      lower[s.request] += us;
      self[layer] += us;
    }
  }
  for (const auto& [request, us] : server) {
    self["server"] += std::max(0.0, us - lower[request]);
  }
  for (auto& [layer, us] : self) us /= std::max<size_t>(1, requests);
  return self;
}

}  // namespace

int ReplayMain(const Args& args) {
  const std::string dir = args.Str("dir");
  const double seconds = args.Num("seconds", 10);
  const std::string out_path = args.Str("out");
  const std::string spans_path = args.Str("spans");
  const std::string durable = args.Str("durable");
  if (dir.empty() || out_path.empty()) {
    std::fprintf(stderr, "replay: --dir DIR --seconds S --out FILE "
                         "[--spans FILE] [--durable PREFIX]\n");
    return 2;
  }
  auto loaded = ReadStream(dir + "/requests.tsv");
  if (!loaded.ok()) {
    std::fprintf(stderr, "replay: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const std::vector<Request>& stream = *loaded;
  const std::string data = dir + "/data.lsd";
  Tracer t;
  auto die = [](const lsd::Status& s) {
    std::fprintf(stderr, "replay: %s\n", s.ToString().c_str());
    return 1;
  };

  // ---- Set-up: the closure of a freshly loaded database ------------------
  double derived_per_candidate = 0;
  {
    lsd::LooseDb fresh;
    lsd::Status s = Traced(&t, "store.load", -1, kNoRequest,
                           [&] { return fresh.LoadTextFile(data); });
    if (!s.ok()) return die(s);
    s = Traced(&t, "rules.closure", -1, kNoRequest,
               [&] { return fresh.Warm(); });
    if (!s.ok()) return die(s);
    const lsd::ClosureStats* cs = fresh.closure_stats();
    if (cs != nullptr && cs->candidate_facts > 0) {
      derived_per_candidate = static_cast<double>(cs->derived_facts) /
                              static_cast<double>(cs->candidate_facts);
    }
  }

  // ---- The serving store, set up like the workload's server --------------
  // (lsd_serve's defaults: background compaction on, fsync'd WAL when
  // durable.)
  auto store = std::make_unique<lsd::SharedStore>();
  lsd::Status opened =
      durable.empty()
          ? lsd::Status::OK()
          : store->OpenDurable(durable, lsd::SharedStoreDurability());
  if (opened.ok()) opened = store->EnableCompaction();
  if (!opened.ok()) return die(opened);
  lsd::Status ref = LoadReference(data, !durable.empty(), store.get());
  if (!ref.ok()) return die(ref);

  // ---- Tracing overhead --------------------------------------------------
  // The same reads through ServerSession::Execute with and without the
  // two spans per request the traced replay records, alternated twice.
  std::vector<const Request*> sample;
  for (const Request& r : stream) {
    if (r.is_read() && r.stable && sample.size() < 2000) sample.push_back(&r);
  }
  double plain_ns = 0, traced_ns = 0;
  for (int round = 0; round < 4; ++round) {
    lsd::ServerSession session(100 + round, store.get());
    Tracer scratch;
    const int64_t start = NowNs();
    for (size_t i = 0; i < sample.size(); ++i) {
      if (round % 2 == 0) {
        (void)session.Execute(sample[i]->text);
      } else {
        const int32_t root = scratch.Begin("request", -1, i);
        const int32_t id = scratch.Begin("server.execute", root, i);
        (void)session.Execute(sample[i]->text);
        scratch.End(id);
        scratch.End(root);
      }
    }
    (round % 2 == 0 ? plain_ns : traced_ns) +=
        static_cast<double>(NowNs() - start);
  }
  const double overhead_us =
      sample.empty() ? 0.0
                     : (traced_ns - plain_ns) / 2e3 /
                           static_cast<double>(sample.size());
  const double overhead_pct =
      plain_ns > 0 ? 100.0 * (traced_ns - plain_ns) / plain_ns : 0.0;

  // ---- The traced replay -------------------------------------------------
  lsd::ServerSession session(1, store.get());
  Counters c;
  const int64_t replay_start = NowNs();
  const int64_t replay_end = replay_start + static_cast<int64_t>(seconds * 1e9);
  size_t replayed = 0;
  for (size_t i = 0; i < stream.size() && NowNs() < replay_end; ++i) {
    const Request& req = stream[i];
    const int32_t root = t.Begin("request", -1, i);
    lsd::Status s;
    if (req.is_read()) {
      lsd::EpochPtr epoch = store->snapshot();
      lsd::LooseDb& db = epoch->db();
      const double hits = db.planner_hits(), misses = db.planner_misses();
      s = Traced(&t, "server.execute", root, i,
                 [&] { return session.Execute(req.text); })
              .status();
      c.plan_hits += db.planner_hits() - hits;
      c.plan_lookups += db.planner_hits() + db.planner_misses() - hits - misses;
      if (s.ok()) s = Decompose(db, req, i, root, &t, &c);
      ++c.reads;
    } else {
      s = ReplayWrite(store.get(), req, i, root, &t);
      ++c.writes;
    }
    t.End(root);
    if (!s.ok()) {
      ++c.failed;
      std::fprintf(stderr, "replay: %s: %s\n", req.text.c_str(),
                   s.ToString().c_str());
    }
    ++replayed;
  }
  const double elapsed_s = static_cast<double>(NowNs() - replay_start) / 1e9;

  // ---- Store shape, compaction, recovery ---------------------------------
  lsd::EpochPtr tip = store->snapshot();
  const double facts = static_cast<double>(tip->db().store().size());
  auto memory = tip->db().MemoryUsage();
  const lsd::CompactionShape shape = store->SampleShape();
  const lsd::CompactionStats compaction = store->compaction_stats();
  tip.reset();
  uint64_t bytes_merged = 0;
  lsd::Status compacted = Traced(&t, "store.compact", -1, kNoRequest, [&] {
    return store->CompactOnce(&bytes_merged);
  });
  if (!compacted.ok()) return die(compacted);
  double recover_records = 0;
  if (!durable.empty()) {
    store.reset();  // closes the log; reopen = crash-free recovery
    store = std::make_unique<lsd::SharedStore>();
    lsd::Status s = Traced(&t, "store.recover", -1, kNoRequest, [&] {
      return store->OpenDurable(durable, lsd::SharedStoreDurability());
    });
    if (!s.ok()) return die(s);
    recover_records =
        static_cast<double>(store->last_recovery().records_replayed);
  }

  if (!spans_path.empty()) {
    lsd::Status w = t.Write(spans_path);
    if (!w.ok()) return die(w);
  }

  // ---- Metrics -----------------------------------------------------------
  auto one = [&](const char* name) {
    std::vector<double> d = t.Durations(name);
    return d.empty() ? 0.0 : d[0];
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  JsonObject m;
  auto metric = [&](const char* name, double value, const char* unit) {
    JsonObject v;
    v.Num("value", value).Str("unit", unit);
    m.Raw(name, v.Render());
  };
  metric("server.execute_us", Median(t.Durations("server.execute")), "us");
  metric("server.commit_ms", Median(t.Durations("server.commit")) / 1e3, "ms");
  metric("store.clone_ms", Median(t.Durations("store.clone")) / 1e3, "ms");
  metric("store.bytes_per_fact",
         memory.ok() ? ratio(static_cast<double>(memory->total()), facts) : 0,
         "B");
  metric("store.overlay_bytes", static_cast<double>(shape.overlay_bytes), "B");
  metric("store.segments", static_cast<double>(shape.runs), "count");
  metric("store.compact_ms", one("store.compact") / 1e3, "ms");
  metric("store.merges", static_cast<double>(compaction.merges), "count");
  metric("store.merge_aborts", static_cast<double>(compaction.aborted),
         "count");
  metric("store.bytes_merged_per_fact",
         ratio(static_cast<double>(compaction.bytes_merged + bytes_merged),
               facts),
         "B");
  metric("store.backpressure_hits",
         static_cast<double>(compaction.backpressure_hits), "count");
  metric("store.recover_records", recover_records, "count");
  metric("rules.closure_ms", one("rules.closure") / 1e3, "ms");
  metric("rules.warm_ms", Median(t.Durations("rules.warm")) / 1e3, "ms");
  metric("rules.derived_per_candidate", derived_per_candidate, "ratio");
  metric("query.parse_us", Median(t.Durations("query.parse")), "us");
  metric("query.run_us", Median(t.Durations("query.run")), "us");
  metric("query.steps_per_row", ratio(c.query_steps, c.query_rows), "ratio");
  metric("query.plan_hit_rate", ratio(c.plan_hits, c.plan_lookups), "ratio");
  metric("browse.nav_us", Median(t.Durations("browse.nav")), "us");
  metric("browse.nav_steps", ratio(c.nav_steps, c.navs), "count");
  metric("browse.near_us", Median(t.Durations("browse.near")), "us");
  metric("browse.dist_us", Median(t.Durations("browse.dist")), "us");
  metric("browse.probe_us", Median(t.Durations("browse.probe")), "us");
  metric("browse.probe_queries", ratio(c.probe_queries, c.probes), "count");
  metric("browse.probe_success_frac", ratio(c.probe_successes, c.probes),
         "ratio");
  const std::map<std::string, double> self =
      SelfTimes(t.spans(), replayed);
  JsonObject self_json;
  for (const char* layer : {"server", "store", "rules", "query", "browse"}) {
    auto it = self.find(layer);
    const double us = it == self.end() ? 0.0 : it->second;
    self_json.Num(layer, us);
    metric((std::string(layer) + ".self_us").c_str(), us, "us");
  }

  JsonObject out;
  out.Int("requests", static_cast<int64_t>(replayed))
      .Int("reads", static_cast<int64_t>(c.reads))
      .Int("writes", static_cast<int64_t>(c.writes))
      .Int("failed", static_cast<int64_t>(c.failed))
      .Num("elapsed_s", elapsed_s)
      .Num("overhead_us", overhead_us)
      .Num("overhead_pct", overhead_pct)
      .Raw("self_us", self_json.Render())
      .Raw("metrics", m.Render());
  lsd::Status w = WriteFile(out_path, out.Render() + "\n");
  if (!w.ok()) return die(w);
  return c.failed == 0 ? 0 : 1;
}

}  // namespace lsdbench

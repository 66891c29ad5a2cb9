// lsdbench gen — the seeded dataset and request stream of one workload.
//
// The dataset combines the repository's own generators (src/workload):
// a scaled organization domain (standard rules plus the salary
// integrity rule active), a DAG generalization taxonomy carrying a
// Sec 5.2-shaped catalog (taxa LOVE goods, goods COST FREE/CHEAP/...),
// a Zipf(1.1) fact graph, and the campus scenario. Two sizes: "large"
// (about 200k asserted facts; browse-zipf and probe-uniform) and "mid"
// (about 50k; churn). Everything derives from --seed.
//
//   lsdbench gen --workload NAME --seed N --dir DIR
//
// writes DIR/data.lsd, DIR/requests.tsv (see bench.h) and DIR/meta.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/loose_db.h"
#include "store/text_format.h"
#include "util/random.h"
#include "workload/org_domain.h"
#include "workload/random_graph.h"
#include "workload/university_domain.h"

namespace lsdbench {
namespace {

struct Scale {
  int employees;
  int departments;
  int taxonomy_depth;
  size_t graph_entities;
  size_t graph_facts;
  size_t goods;
  size_t requests;
};

constexpr Scale kLarge = {16000, 160, 5, 30000, 125000, 6000, 150000};
constexpr Scale kMid = {4000, 40, 4, 10000, 30000, 1800, 120000};

constexpr int kGraphRelationships = 24;
constexpr double kZipf = 1.1;
constexpr const char* kGolden =
    "probe (STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)";

// prefix + decimal i, appended rather than prepended (GCC 12 reports a
// false -Wrestrict on "literal" + std::to_string at -O3).
std::string Named(const char* prefix, uint64_t i) {
  std::string out(prefix);
  out += std::to_string(i);
  return out;
}

// Everything the request generator needs to know about the dataset.
struct Dataset {
  lsd::workload::OrgDomain org;
  lsd::workload::Taxonomy taxonomy;
  std::vector<std::string> probe_taxa;  // depth >= depth-2
  std::vector<std::string> leaves;
  std::vector<int> salaries;
  // Zipf-graph ranks that made it into at least one fact (popularity
  // order: rank 0 is the hub).
  std::vector<size_t> graph_ranks;
};

Dataset BuildDataset(const Scale& scale, uint64_t seed, lsd::LooseDb* db) {
  Dataset data;
  lsd::Rng rng(seed * 7919 + 17);

  lsd::workload::OrgOptions org;
  org.num_employees = scale.employees;
  org.num_departments = scale.departments;
  org.seed = seed;
  data.org = lsd::workload::BuildOrgDomain(db, org);
  for (const auto& rec : data.org.records) data.salaries.push_back(rec.salary);

  lsd::workload::TaxonomyOptions tax;
  tax.depth = scale.taxonomy_depth;
  tax.fanout = 4;
  tax.num_roots = 2;
  tax.extra_parent_prob = 0.25;
  tax.seed = seed + 1;
  data.taxonomy = lsd::workload::BuildRandomTaxonomy(db, tax);
  for (int d = tax.depth - 2; d <= tax.depth; ++d) {
    for (const std::string& n : data.taxonomy.levels[d]) {
      data.probe_taxa.push_back(n);
    }
  }
  data.leaves = data.taxonomy.levels.back();

  // The catalog: the Sec 5.2 world scaled up. Leaves love two goods,
  // their parents one (inherited down the DAG by the generalization
  // rules); a good costs FREE, CHEAP or more. LOVE ≺ LIKE ≺ ENJOY and
  // FREE ≺ CHEAP come from the campus facts below.
  db->Assert("PRICEY", "ISA", "COSTLY");
  std::vector<std::string> goods;
  for (size_t g = 0; g < scale.goods; ++g) {
    goods.push_back(Named("G", g));
    double u = rng.NextDouble();
    db->Assert(goods.back(), "COSTS",
               u < 0.08 ? "FREE" : (u < 0.30 ? "CHEAP" : "PRICEY"));
  }
  for (const std::string& leaf : data.leaves) {
    for (int k = 0; k < 2; ++k) {
      db->Assert(leaf, "LOVE", goods[rng.Uniform(goods.size())]);
    }
  }
  for (const std::string& n :
       data.taxonomy.levels[data.taxonomy.levels.size() - 2]) {
    db->Assert(n, "LOVE", goods[rng.Uniform(goods.size())]);
  }

  lsd::workload::GraphOptions graph;
  graph.num_entities = scale.graph_entities;
  graph.num_relationships = kGraphRelationships;
  graph.num_facts = scale.graph_facts;
  graph.zipf_exponent = kZipf;
  graph.seed = seed + 2;
  lsd::workload::BuildZipfGraph(db, graph);
  for (size_t i = 0; i < scale.graph_entities; ++i) {
    if (db->entities().Lookup(Named("E", i)).has_value()) {
      data.graph_ranks.push_back(i);
    }
  }

  lsd::workload::BuildCampusDomain(db);
  return data;
}

// One workload's request generator.
class StreamGenerator {
 public:
  StreamGenerator(const Scale& scale, const Dataset& data, uint64_t seed,
                bool churn)
      : scale_(scale),
        data_(data),
        rng_(seed * 104729 + 3),
        zipf_(data.graph_ranks.size(), kZipf),
        churn_(churn) {}

  std::vector<Request> Build(const std::string& workload) {
    std::vector<Request> out;
    out.reserve(scale_.requests);
    out.push_back(Read("golden", kGolden, true));
    while (out.size() < scale_.requests) {
      if (workload == "probe-uniform") {
        out.push_back(ProbeMix());
      } else if (churn_ && rng_.NextDouble() < 0.25) {
        out.push_back(Write());
      } else {
        out.push_back(BrowseMix());
      }
    }
    return out;
  }

 private:
  Request Read(const std::string& tag, std::string text, bool stable) {
    Request r;
    r.kind = 'R';
    r.tag = tag;
    // Outside churn nothing writes, so every read is checkable.
    r.stable = stable || !churn_;
    r.text = std::move(text);
    return r;
  }

  // Start entities: Zipf over the graph's own popularity ranks, or
  // uniform over every graph entity.
  std::string Popular() {
    return Named("E", data_.graph_ranks[zipf_.Sample(rng_)]);
  }
  std::string AnyGraphEntity() {
    return Named("E",
                 data_.graph_ranks[rng_.Uniform(data_.graph_ranks.size())]);
  }
  std::string Rel() {
    return Named("R", rng_.Uniform(kGraphRelationships));
  }
  const std::string& Employee() {
    return data_.org.employees[rng_.Uniform(data_.org.employees.size())];
  }
  const std::string& Department() {
    return data_.org.departments[rng_.Uniform(data_.org.departments.size())];
  }
  const std::string& Pick(const std::vector<std::string>& v) {
    return v[rng_.Uniform(v.size())];
  }

  // browse-zipf (and churn's reads): popular neighbourhoods, revisited.
  Request BrowseMix() {
    const double u = rng_.NextDouble();
    if (u < 0.40) return Read("nav", "nav " + Popular(), true);
    if (u < 0.60) {
      return Read("query", "query (" + Popular() + ", " + Rel() + ", ?X)",
                  true);
    }
    if (u < 0.70) {
      return Read("query", "query (?X, " + Rel() + ", " + Popular() + ")",
                  true);
    }
    if (u < 0.82) return Read("near", "near " + Popular() + " 1", true);
    if (u < 0.90) {
      return Read("dist", "dist " + Popular() + " " + Popular(), true);
    }
    if (u < 0.95) {
      // The rule-derived side: org navigation and inherited facts.
      if (rng_.Bernoulli(0.5)) return Read("nav", "nav " + Department(), false);
      return Read("query", "query (" + Employee() + ", IS-PAID-BY, ?D)",
                  false);
    }
    if (u < 0.99) {
      static const char* kCampus[] = {
          "nav STUDENT", "nav FRESHMAN", "query (FRESHMAN, LOVE, ?X)",
          "query (?X, COSTS, CHEAP)", "near MOVIE-NIGHT 2"};
      return Read("campus", kCampus[rng_.Uniform(5)], true);
    }
    return Read("golden", kGolden, true);
  }

  // probe-uniform: failing conjunctions and small joins over uniformly
  // drawn entities — the working set is the whole database.
  Request ProbeMix() {
    const double u = rng_.NextDouble();
    if (u < 0.35) {
      return Read("probe", "probe (" + Pick(data_.probe_taxa) +
                               ", LOVE, ?Z) and (?Z, COSTS, " +
                               (rng_.Bernoulli(0.7) ? "FREE" : "CHEAP") + ")",
                  true);
    }
    if (u < 0.55) {
      return Read("probe", "probe (" + AnyGraphEntity() + ", " + Rel() +
                               ", ?X) and (?X, " + Rel() + ", " +
                               AnyGraphEntity() + ")",
                  true);
    }
    if (u < 0.65) {
      const int salary = data_.salaries[rng_.Uniform(data_.salaries.size())];
      return Read("probe", "probe (" + Employee() +
                               ", MANAGER, ?M) and (?M, EARNS, $" +
                               std::to_string(salary) + ")",
                  true);
    }
    if (u < 0.73) {
      return Read("join", "query (" + Employee() +
                              ", MANAGER, ?M) and (?M, WORKS-FOR, ?D)",
                  true);
    }
    if (u < 0.80) {
      return Read("join", "query (" + Employee() +
                              ", WORKS-FOR, ?D) and (?M, WORKS-FOR, ?D) and "
                              "(?M, IN, MANAGER)",
                  true);
    }
    if (u < 0.90) {
      return Read("join", "query (" + AnyGraphEntity() + ", " + Rel() +
                              ", ?X) and (?X, " + Rel() + ", ?Y)",
                  true);
    }
    if (u < 0.99) {
      return Read("query", "query (" + AnyGraphEntity() + ", ?R, ?X)", true);
    }
    return Read("golden", kGolden, true);
  }

  // churn's writes: unique asserts on fresh entities (some on the
  // rule-relevant IN / WORKS-FOR / ISA so the closure extends) and
  // retracts of facts asserted at least 32 writes earlier.
  Request Write() {
    Request w;
    w.kind = 'A';
    w.tag = "write";
    w.stable = false;
    const double u = rng_.NextDouble();
    if (u < 0.20 && asserted_.size() > retracted_ + 32) {
      w = asserted_[retracted_++];
      w.kind = 'D';
      return w;
    }
    const std::string name = Named("W", next_write_++);
    w.s = name;
    if (u < 0.40) {
      w.r = "IN";
      w.t = "EMPLOYEE";
    } else if (u < 0.60) {
      w.r = "WORKS-FOR";
      w.t = Department();
    } else if (u < 0.80) {
      w.r = "ISA";
      w.t = Pick(data_.leaves);
    } else {
      w.r = "NOTE";
      w.t = Named("W", next_write_ / 2);
    }
    asserted_.push_back(w);
    return w;
  }

  const Scale& scale_;
  const Dataset& data_;
  lsd::Rng rng_;
  lsd::ZipfSampler zipf_;
  bool churn_;
  uint64_t next_write_ = 0;
  std::vector<Request> asserted_;  // retract candidates, in assert order
  size_t retracted_ = 0;
};

}  // namespace

int GenMain(const Args& args) {
  const std::string workload = args.Str("workload");
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed", 1));
  const std::string dir = args.Str("dir");
  if (dir.empty() || (workload != "browse-zipf" &&
                      workload != "probe-uniform" && workload != "churn")) {
    std::fprintf(stderr, "gen: --workload browse-zipf|probe-uniform|churn "
                         "--seed N --dir DIR\n");
    return 2;
  }
  const bool churn = workload == "churn";
  const Scale& scale = churn ? kMid : kLarge;

  // Generators only assert; rules other than the dataset's own come
  // from the server's standard rule set.
  lsd::LooseDbOptions options;
  options.standard_rules = false;
  lsd::LooseDb db(options);
  Dataset data = BuildDataset(scale, seed, &db);
  lsd::Status saved =
      lsd::SaveTextFile(dir + "/data.lsd", db.store(), db.rules());
  if (!saved.ok()) {
    std::fprintf(stderr, "gen: %s\n", saved.ToString().c_str());
    return 1;
  }

  StreamGenerator generator(scale, data, seed, churn);
  std::vector<Request> requests = generator.Build(workload);
  lsd::Status written = WriteStream(dir + "/requests.tsv", requests);
  if (!written.ok()) {
    std::fprintf(stderr, "gen: %s\n", written.ToString().c_str());
    return 1;
  }
  size_t writes = 0;
  for (const Request& r : requests) writes += r.is_read() ? 0 : 1;
  JsonObject meta;
  meta.Str("workload", workload)
      .Int("seed", static_cast<int64_t>(seed))
      .Str("dataset", churn ? "mid" : "large")
      .Int("asserted_facts", static_cast<int64_t>(db.store().size()))
      .Int("entities", static_cast<int64_t>(db.entities().size()))
      .Int("requests", static_cast<int64_t>(requests.size()))
      .Int("writes", static_cast<int64_t>(writes));
  lsd::Status m = WriteFile(dir + "/meta.json", meta.Render() + "\n");
  if (!m.ok()) {
    std::fprintf(stderr, "gen: %s\n", m.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace lsdbench

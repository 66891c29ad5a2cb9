#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "server/protocol.h"
#include "server/session.h"

namespace lsdbench {

lsd::Status WriteStream(const std::string& path,
                        const std::vector<Request>& requests) {
  std::string out;
  out.reserve(requests.size() * 40);
  for (const Request& r : requests) {
    out += r.kind;
    out += '\t';
    out += r.tag;
    if (r.stable) out += '+';
    out += '\t';
    out += r.is_read() ? r.text : r.s + " " + r.r + " " + r.t;
    out += '\n';
  }
  return WriteFile(path, out);
}

lsd::StatusOr<std::vector<Request>> ReadStream(const std::string& path) {
  std::ifstream in(path);
  if (!in) return lsd::Status::IoError("cannot open " + path);
  std::vector<Request> requests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    size_t tab1 = line.find('\t');
    size_t tab2 = tab1 == std::string::npos ? tab1 : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos || tab1 != 1) {
      return lsd::Status::InvalidArgument("bad stream line: " + line);
    }
    Request r;
    r.kind = line[0];
    r.tag = line.substr(2, tab2 - 2);
    r.stable = !r.tag.empty() && r.tag.back() == '+';
    if (r.stable) r.tag.pop_back();
    r.text = line.substr(tab2 + 1);
    if (r.kind == 'A' || r.kind == 'D') {
      std::istringstream fields(r.text);
      if (!(fields >> r.s >> r.r >> r.t)) {
        return lsd::Status::InvalidArgument("bad write line: " + line);
      }
    } else if (r.kind != 'R') {
      return lsd::Status::InvalidArgument("bad request kind: " + line);
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    values_[key] = argv[i + 1];
  }
}

std::string Args::Str(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

double Args::Num(const std::string& key, double def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : std::atof(it->second.c_str());
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*v)[lo] * (1.0 - frac) + (*v)[hi] * frac;
}

double SmoothQuantile(std::vector<double>* v, double q) {
  const size_t n = v->size();
  if (n < 3) return Quantile(v, q);
  std::sort(v->begin(), v->end());
  const double sigma =
      std::sqrt(q * (1 - q) / static_cast<double>(n + 1));
  auto cdf = [&](double x) {
    return 0.5 * std::erfc(-(x - q) / (sigma * std::sqrt(2.0)));
  };
  // Order statistic i (1-based) covers ranks ((i-1)/n, i/n].
  const double lo = std::max(0.0, q - 8 * sigma);
  const double hi = std::min(1.0, q + 8 * sigma);
  const size_t first = static_cast<size_t>(std::floor(lo * n));
  const size_t last = std::min(n, static_cast<size_t>(std::ceil(hi * n)));
  double sum = 0, weight = 0;
  for (size_t i = first; i < last; ++i) {
    const double w = cdf(static_cast<double>(i + 1) / n) -
                     cdf(static_cast<double>(i) / n);
    sum += w * (*v)[i];
    weight += w;
  }
  return weight > 0 ? sum / weight : Quantile(v, q);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace

JsonObject& JsonObject::Num(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) value = 0.0;
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, JsonEscape(value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonEscape(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

lsd::Status WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return lsd::Status::IoError("cannot write " + path);
  out << data;
  out.close();
  if (!out) return lsd::Status::IoError("short write to " + path);
  return lsd::Status::OK();
}

std::map<std::string, double> ParseStats(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  auto after = [&](const char* prefix) -> const char* {
    size_t n = std::char_traits<char>::length(prefix);
    return line.compare(0, n, prefix) == 0 ? line.c_str() + n : nullptr;
  };
  while (std::getline(in, line)) {
    const char* p = nullptr;
    double a = 0, b = 0, c = 0, d = 0;
    if ((p = after("asserted facts:")) != nullptr) {
      out["asserted_facts"] = std::atof(p);
    } else if ((p = after("derived facts:")) != nullptr) {
      out["derived_facts"] = std::atof(p);
    } else if ((p = after("planner cache:")) != nullptr &&
               std::sscanf(p, " %lf plans, %lf hits / %lf misses", &a, &b,
                           &c) == 3) {
      out["planner_hits"] = b;
      out["planner_misses"] = c;
    } else if ((p = after("commits:")) != nullptr) {
      out["commits"] = std::atof(p);
    } else if ((p = after("group commit:")) != nullptr &&
               std::sscanf(p, " %lf groups", &a) == 1) {
      out["groups"] = a;
    } else if ((p = after("commit slots:")) != nullptr &&
               std::sscanf(p, " %lf acked / %lf rejected", &a, &b) == 2) {
      out["slots_acked"] = a;
      out["slots_rejected"] = b;
    } else if ((p = after("wal:")) != nullptr &&
               std::sscanf(p, " %lf records in %lf batches, %lf fsyncs", &a,
                           &b, &c) == 3) {
      out["wal_records"] = a;
      out["wal_batches"] = b;
      out["fsyncs"] = c;
    } else if ((p = after("compaction:")) != nullptr) {
      const char* m = std::strchr(p, ',');
      if (m != nullptr &&
          std::sscanf(m + 1, " %lf merges (%lf aborted, %lf failed", &a, &b,
                      &c) == 3) {
        out["merges"] = a;
        out["merge_aborts"] = b;
        out["merge_failures"] = c;
      }
    } else if ((p = after("  merged:")) != nullptr &&
               std::sscanf(p, " %lf facts / %lf bytes, last merge %lf ms, "
                              "backpressure hits %lf",
                           &a, &b, &c, &d) == 4) {
      out["facts_merged"] = a;
      out["bytes_merged"] = b;
      out["backpressure_hits"] = d;
    } else if ((p = after("governance:")) != nullptr) {
      const char* m = std::strchr(p, ',');
      if (m != nullptr) out["degrade_episodes"] = std::atof(m + 1);
    } else if ((p = after("cancelled:")) != nullptr) {
      out["cancelled"] = std::atof(p);
    }
  }
  return out;
}

lsd::StatusOr<SeedPlan> ReadSeedPlan(const std::string& lsd_path,
                                     size_t batch) {
  std::ifstream in(lsd_path);
  if (!in) return lsd::Status::IoError("cannot read " + lsd_path);
  SeedPlan plan;
  std::vector<lsd::MutationOp> ops;
  auto flush = [&] {
    if (ops.empty()) return;
    plan.batches.push_back(lsd::EncodeMutationPayload(ops));
    plan.batch_sizes.push_back(ops.size());
    ops.clear();
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line[0] != '(') {
      plan.rules.push_back(line);
      continue;
    }
    // Generated files hold one "(S, R, T)" per line.
    const std::string body = line.substr(1, line.rfind(')') - 1);
    const size_t a = body.find(", ");
    const size_t b = a == std::string::npos ? a : body.find(", ", a + 2);
    if (b == std::string::npos) {
      return lsd::Status::InvalidArgument("bad fact line: " + line);
    }
    lsd::MutationOp op;
    op.source = body.substr(0, a);
    op.relationship = body.substr(a + 2, b - a - 2);
    op.target = body.substr(b + 2);
    ops.push_back(std::move(op));
    if (ops.size() == batch) flush();
  }
  flush();
  return plan;
}

lsd::Status LoadReference(const std::string& lsd_path, bool seeded,
                          lsd::SharedStore* store) {
  if (!seeded) {
    auto loaded = store->Commit(
        [&](lsd::LooseDb& db) { return db.LoadTextFile(lsd_path); });
    return loaded.status();
  }
  LSD_ASSIGN_OR_RETURN(SeedPlan plan, ReadSeedPlan(lsd_path, kSeedBatch));
  lsd::ServerSession session(0, store);
  for (const std::string& payload : plan.batches) {
    LSD_RETURN_IF_ERROR(session.ExecuteBatchMutation(payload).status());
  }
  for (const std::string& rule : plan.rules) {
    LSD_RETURN_IF_ERROR(session.Execute(rule).status());
  }
  return lsd::Status::OK();
}

}  // namespace lsdbench

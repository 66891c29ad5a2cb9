// lsd_shell: an interactive browser for loosely structured databases —
// the user-facing surface the paper describes: standard queries,
// navigation, probing with retraction menus, and the Sec 6.1 operators.
//
//   $ ./lsd_shell [path-prefix]       # optional snapshot+WAL to open
//
// Commands:
//   assert (S, R, T)                  add a fact
//   retract (S, R, T)                 remove a fact
//   rule NAME: (..) => (..)           define an inference rule
//   integrity NAME: (..) => (..)      define an integrity rule
//   query FORMULA                     evaluate; prints a table
//   probe FORMULA                     evaluate with automatic retraction
//   nav ENTITY                        neighborhood table
//   assoc S T                         associations (incl. compositions)
//   try ENTITY                        all facts mentioning ENTITY
//   relation CLASS R1 T1 [R2 T2 ...]  structured view
//   limit N                           composition chain bound
//   include NAME | exclude NAME       toggle a rule
//   rules                             list rules
//   check                             integrity check
//   load FILE                         load .lsd text file
//   save PREFIX                       snapshot + attach WAL
//   stats                             store/closure statistics
//   help, quit
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "browse/dot_export.h"
#include "browse/session.h"
#include "core/loose_db.h"
#include "query/table_formatter.h"
#include "store/text_format.h"
#include "util/budget.h"
#include "util/string_util.h"

namespace {

using lsd::LooseDb;
using lsd::Status;
using lsd::WalSegmentInfo;

// Shell-local governance: `timeout N` arms a per-command deadline
// (same QueryBudget machinery the server threads through requests),
// and `stats` reports what it killed.
struct ShellGovernance {
  int timeout_ms = 0;  // 0 = ungoverned
  uint64_t cancelled_deadline = 0;
  uint64_t cancelled_budget = 0;
  uint64_t worst_command_ms = 0;
};

void PrintStatus(const Status& s) {
  if (!s.ok()) std::printf("! %s\n", s.ToString().c_str());
}

// Parses "(S, R, T)" into a ground fact, interning entities.
lsd::StatusOr<lsd::Fact> ParseGroundFact(LooseDb& db,
                                         std::string_view text) {
  auto q = lsd::ParseQuery(text, &db.entities());
  if (!q.ok()) return q.status();
  if (q->root()->kind != lsd::NodeKind::kAtom ||
      q->root()->atom.HasVariables()) {
    return Status::InvalidArgument("expected a ground template (S, R, T)");
  }
  return q->root()->atom.Substitute(lsd::Binding(0));
}

void DoQuery(LooseDb& db, const std::string& text,
             const lsd::QueryBudget* budget) {
  lsd::EvalOptions options;
  options.budget = budget;
  auto r = db.Query(text, options);
  if (!r.ok()) {
    PrintStatus(r.status());
    return;
  }
  std::printf("%s", lsd::FormatResult(*r, db.entities()).c_str());
}

void DoProbe(LooseDb& db, const std::string& text,
             const lsd::QueryBudget* budget) {
  lsd::ProbeOptions options;
  options.budget = budget;
  auto probe = db.Probe(text, options);
  if (!probe.ok()) {
    PrintStatus(probe.status());
    return;
  }
  if (probe->original_succeeded) {
    std::printf("%s", lsd::FormatResult(probe->original_result,
                                        db.entities())
                          .c_str());
    return;
  }
  std::printf("%s", probe->Menu(db.entities()).c_str());
  for (size_t i = 0; i < probe->successes.size(); ++i) {
    std::printf("%zu) %s\n%s", i + 1,
                probe->successes[i].query.DebugString(db.entities())
                    .c_str(),
                lsd::FormatResult(probe->successes[i].result,
                                  db.entities())
                    .c_str());
  }
}

void DoRelation(LooseDb& db, std::istringstream& args) {
  std::string klass;
  args >> klass;
  std::vector<std::pair<std::string, std::string>> columns;
  std::string rel, target;
  while (args >> rel >> target) columns.emplace_back(rel, target);
  if (klass.empty() || columns.empty()) {
    std::printf("usage: relation CLASS R1 T1 [R2 T2 ...]\n");
    return;
  }
  auto table = db.Relation(klass, columns);
  if (!table.ok()) {
    PrintStatus(table.status());
    return;
  }
  std::printf("%s", table->Render(db.entities()).c_str());
}

void DoStats(LooseDb& db, const ShellGovernance& gov) {
  std::printf("entities:       %zu\n", db.entities().size());
  std::printf("asserted facts: %zu\n", db.store().size());
  auto view = db.View();
  if (view.ok() && db.closure_stats() != nullptr) {
    const lsd::ClosureStats& cs = *db.closure_stats();
    std::printf("derived facts:  %zu (in %zu rounds)\n", cs.derived_facts,
                cs.rounds);
    std::printf("closure maintenance: %zu full recomputes, %zu extensions, "
                "%zu retract maintenances\n",
                cs.full_recomputes, cs.extensions, cs.retract_maintenances);
    std::printf("closure probes: %zu residual, %zu skipped by key filter\n",
                cs.probes, cs.probes_skipped);
  }
  auto mem = db.MemoryUsage();
  if (mem.ok()) {
    std::printf("base tier:      %zu bytes (frozen %zu in %zu segments, "
                "overlay %zu)\n",
                mem->base.total(), mem->base.frozen.total(),
                mem->base.runs, mem->base.overlay_bytes);
    std::printf("derived tier:   %zu bytes (frozen %zu in %zu segments, "
                "overlay %zu)\n",
                mem->derived.total(), mem->derived.frozen.total(),
                mem->derived.runs, mem->derived.overlay_bytes);
    std::printf("entity table:   %zu bytes\n", mem->entity_bytes);
    const size_t facts = db.store().size();
    std::printf("resident:       %zu bytes (%.1f B per asserted fact)\n",
                mem->total(),
                facts == 0 ? 0.0
                           : static_cast<double>(mem->total()) /
                                 static_cast<double>(facts));
  }
  std::printf("rules:          %zu\n", db.rules().size());
  std::printf("limit(n):       %d\n", db.composition_limit());
  if (gov.timeout_ms > 0) {
    std::printf("governance:     timeout %d ms\n", gov.timeout_ms);
  } else {
    std::printf("governance:     ungoverned (set with 'timeout N')\n");
  }
  std::printf("cancelled:      %llu (deadline %llu, budget %llu)\n",
              static_cast<unsigned long long>(gov.cancelled_deadline +
                                              gov.cancelled_budget),
              static_cast<unsigned long long>(gov.cancelled_deadline),
              static_cast<unsigned long long>(gov.cancelled_budget));
  std::printf("worst command:  %llu ms\n",
              static_cast<unsigned long long>(gov.worst_command_ms));
  std::printf("store version:  %llu\n",
              static_cast<unsigned long long>(db.store_version()));
  std::printf("rules version:  %llu\n",
              static_cast<unsigned long long>(db.rules_version()));
  uint64_t hits = db.planner_hits(), misses = db.planner_misses();
  std::printf("planner cache:  %zu plans, %llu hits / %llu misses",
              db.planner_plan_count(), static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  if (hits + misses > 0) {
    std::printf(" (%.1f%% hit rate)",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses));
  }
  std::printf("\n");
  if (db.wal().is_open()) {
    std::printf("wal:            %llu records in %llu batches, %llu fsyncs"
                " (gen %llu, %llu bytes since checkpoint)\n",
                static_cast<unsigned long long>(db.wal().appended_records()),
                static_cast<unsigned long long>(db.wal().append_batches()),
                static_cast<unsigned long long>(db.wal().fsyncs()),
                static_cast<unsigned long long>(db.wal().generation()),
                static_cast<unsigned long long>(db.wal().generation_bytes()));
    if (!db.wal_status().ok()) {
      std::printf("wal status:     DEGRADED: %s\n",
                  db.wal_status().ToString().c_str());
    }
    // The on-disk segment inventory: what a crash would recover from,
    // and what a replication subscriber can still resume from.
    const std::vector<WalSegmentInfo> segments = db.wal().SegmentInventory();
    uint64_t total = 0;
    for (const WalSegmentInfo& seg : segments) total += seg.bytes;
    std::printf("wal segments:   %zu live, %llu bytes on disk\n",
                segments.size(), static_cast<unsigned long long>(total));
    for (const WalSegmentInfo& seg : segments) {
      std::printf("  seg %06llu    gen %llu, %llu bytes (%s)\n",
                  static_cast<unsigned long long>(seg.seq),
                  static_cast<unsigned long long>(seg.generation),
                  static_cast<unsigned long long>(seg.bytes),
                  seg.path.c_str());
    }
  }
}

void Help() {
  std::printf(
      "commands: assert|retract (S,R,T) · rule/integrity NAME: b => h\n"
      "          define NAME(?P..) := F · call NAME(args..)\n"
      "          query F · probe F · nav E · visit E · back · forward\n"
      "          assoc S T · try E · near E [r] · dist A B · dot [E]\n"
      "          relation CLASS R T [R T..] · limit N · include/exclude"
      " NAME\n"
      "          rules · check · load FILE · save PREFIX · checkpoint\n"
      "          timeout N · stats · quit\n");
}

}  // namespace

int main(int argc, char** argv) {
  LooseDb db;
  if (argc > 1) {
    Status s = db.Open(argv[1]);
    if (!s.ok()) {
      std::fprintf(stderr, "open %s: %s\n", argv[1],
                   s.ToString().c_str());
      return 1;
    }
    std::printf("opened %s (%zu facts): %s\n", argv[1], db.store().size(),
                db.last_recovery().ToString().c_str());
  }
  std::printf("lsd shell — type 'help' for commands\n");
  lsd::BrowseSession session(&db);
  ShellGovernance gov;

  std::string line;
  while (std::printf("lsd> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string_view stripped = lsd::StripWhitespace(line);
    if (stripped.empty()) continue;
    std::istringstream in{std::string(stripped)};
    std::string cmd;
    in >> cmd;
    cmd = lsd::AsciiToLower(cmd);
    std::string rest;
    std::getline(in, rest);
    rest = std::string(lsd::StripWhitespace(rest));

    if (cmd == "quit" || cmd == "exit") break;

    // Arm this command's budget (if `timeout N` is set). The shell is
    // single-threaded, so handing the budget to the db's lazy closure
    // rebuild (set_read_budget) is safe.
    std::unique_ptr<lsd::QueryBudget> command_budget;
    if (gov.timeout_ms > 0) {
      command_budget = std::make_unique<lsd::QueryBudget>(
          std::chrono::milliseconds(gov.timeout_ms));
    }
    const lsd::QueryBudget* budget = command_budget.get();
    db.set_read_budget(budget);
    const auto command_start = std::chrono::steady_clock::now();
    if (cmd == "help") {
      Help();
    } else if (cmd == "assert") {
      auto f = ParseGroundFact(db, rest);
      if (!f.ok()) {
        PrintStatus(f.status());
      } else {
        std::printf(db.Assert(*f) ? "added\n" : "already present\n");
      }
    } else if (cmd == "retract") {
      auto f = ParseGroundFact(db, rest);
      if (!f.ok()) {
        PrintStatus(f.status());
      } else {
        std::printf(db.Retract(*f) ? "removed\n" : "not asserted\n");
      }
    } else if (cmd == "rule" || cmd == "integrity") {
      PrintStatus(db.DefineRule(rest, cmd == "rule"
                                          ? lsd::RuleKind::kInference
                                          : lsd::RuleKind::kIntegrity));
    } else if (cmd == "query") {
      DoQuery(db, rest, budget);
    } else if (cmd == "define") {
      PrintStatus(db.DefineOperator(rest));
    } else if (cmd == "call") {
      lsd::EvalOptions call_options;
      call_options.budget = budget;
      auto r = db.Call(rest, call_options);
      if (!r.ok()) {
        PrintStatus(r.status());
      } else {
        std::printf("%s", lsd::FormatResult(*r, db.entities()).c_str());
      }
    } else if (cmd == "probe") {
      DoProbe(db, rest, budget);
    } else if (cmd == "nav" || cmd == "visit") {
      // visit/back/forward keep a browsing trail (Sec 4.1's iterative
      // process); nav is the stateless variant.
      auto hood =
          cmd == "nav" ? db.Navigate(rest, budget) : session.Visit(rest);
      if (!hood.ok()) {
        PrintStatus(hood.status());
      } else {
        if (cmd == "visit") {
          std::printf("%s\n", session.Breadcrumbs().c_str());
        }
        std::printf("%s", hood->Render(db.entities()).c_str());
      }
    } else if (cmd == "back" || cmd == "forward") {
      auto hood = cmd == "back" ? session.Back() : session.Forward();
      if (!hood.ok()) {
        PrintStatus(hood.status());
      } else {
        std::printf("%s\n%s", session.Breadcrumbs().c_str(),
                    hood->Render(db.entities()).c_str());
      }
    } else if (cmd == "dot") {
      auto view = db.View();
      if (!view.ok()) {
        PrintStatus(view.status());
      } else if (rest.empty()) {
        auto dot = lsd::ExportDot(**view);
        if (!dot.ok()) {
          PrintStatus(dot.status());
        } else {
          std::printf("%s", dot->c_str());
        }
      } else {
        auto id = db.entities().Lookup(rest);
        if (!id.has_value()) {
          std::printf("! unknown entity: %s\n", rest.c_str());
        } else {
          auto dot = lsd::ExportNeighborhoodDot(**view, *id, 2);
          if (!dot.ok()) {
            PrintStatus(dot.status());
          } else {
            std::printf("%s", dot->c_str());
          }
        }
      }
    } else if (cmd == "assoc") {
      std::istringstream args(rest);
      std::string s, t;
      args >> s >> t;
      auto table = db.RenderAssociations(s, t, budget);
      if (!table.ok()) {
        PrintStatus(table.status());
      } else {
        std::printf("%s", table->c_str());
      }
    } else if (cmd == "near") {
      std::istringstream args(rest);
      std::string entity;
      int radius = 2;
      args >> entity >> radius;
      auto nearby = db.Nearby(entity, radius, budget);
      if (!nearby.ok()) {
        PrintStatus(nearby.status());
      } else {
        for (const lsd::NearbyEntity& n : *nearby) {
          std::printf("  %d  %s\n", n.distance,
                      db.entities().Name(n.entity).c_str());
        }
      }
    } else if (cmd == "dist") {
      std::istringstream args(rest);
      std::string a, b;
      args >> a >> b;
      auto d = db.SemanticDistance(a, b, /*max_radius=*/4, budget);
      if (!d.ok()) {
        PrintStatus(d.status());
      } else if (d->has_value()) {
        std::printf("semantic distance %d\n", **d);
      } else {
        std::printf("not connected within the search radius\n");
      }
    } else if (cmd == "try") {
      auto out = db.Try(rest);
      if (!out.ok()) {
        PrintStatus(out.status());
      } else {
        std::printf("%s", out->c_str());
      }
    } else if (cmd == "relation") {
      std::istringstream args(rest);
      DoRelation(db, args);
    } else if (cmd == "limit") {
      int n = 0;
      if (std::istringstream(rest) >> n) {
        db.SetCompositionLimit(n);
        std::printf("limit(%d)\n", n);
      } else {
        std::printf("usage: limit N\n");
      }
    } else if (cmd == "include" || cmd == "exclude") {
      PrintStatus(
          db.SetRuleEnabled(lsd::AsciiToLower(rest), cmd == "include"));
    } else if (cmd == "rules") {
      for (const lsd::Rule& r : db.rules()) {
        std::printf("  [%c] %s\n", r.enabled ? 'x' : ' ',
                    lsd::SerializeRule(r, db.entities()).c_str());
      }
    } else if (cmd == "check") {
      auto violations = db.FindIntegrityViolations();
      if (!violations.ok()) {
        PrintStatus(violations.status());
      } else if (violations->empty()) {
        std::printf("closure is contradiction-free\n");
      } else {
        for (const auto& v : *violations) {
          std::printf("  %s\n", v.description.c_str());
        }
      }
    } else if (cmd == "load") {
      PrintStatus(db.LoadTextFile(rest));
    } else if (cmd == "save") {
      PrintStatus(db.Save(rest));
    } else if (cmd == "checkpoint") {
      PrintStatus(db.Checkpoint());
    } else if (cmd == "timeout") {
      int n = 0;
      if (std::istringstream(rest) >> n && n >= 0) {
        gov.timeout_ms = n;
        if (n > 0) {
          std::printf("timeout %d ms\n", n);
        } else {
          std::printf("timeout disabled\n");
        }
      } else {
        std::printf("usage: timeout MILLISECONDS (0 disables)\n");
      }
    } else if (cmd == "stats") {
      DoStats(db, gov);
    } else {
      std::printf("unknown command '%s'; try 'help'\n", cmd.c_str());
    }

    db.set_read_budget(nullptr);
    const auto command_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - command_start)
            .count();
    if (static_cast<uint64_t>(command_ms) > gov.worst_command_ms) {
      gov.worst_command_ms = static_cast<uint64_t>(command_ms);
    }
    if (command_budget != nullptr && command_budget->cancelled()) {
      if (command_budget->cancel_reason() == lsd::CancelReason::kDeadline) {
        ++gov.cancelled_deadline;
      } else {
        ++gov.cancelled_budget;
      }
    }
  }
  return 0;
}

#include "workload/org_domain.h"

#include "util/random.h"

namespace lsd::workload {

OrgDomain BuildOrgDomain(LooseDb* db, const OrgOptions& options) {
  OrgDomain domain;
  Rng rng(options.seed);

  // Schema-level facts — in this architecture just more facts (Sec 2.6).
  db->Assert("MANAGER", "ISA", "EMPLOYEE");
  db->Assert("EMPLOYEE", "ISA", "PERSON");
  db->Assert("EMPLOYEE", "EARNS", "SALARY");
  db->Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  db->Assert("WORKS-FOR", "ISA", "IS-PAID-BY");
  db->Assert("SALARY", "ISA", "COMPENSATION");
  // Note: deliberately NO (WORKS-FOR, INV, EMPLOYS) here. Inverting the
  // class-level fact (EMPLOYEE, WORKS-FOR, DEPARTMENT) and re-applying
  // the membership rules derives (emp, WORKS-FOR, dept) for EVERY pair,
  // which breaks the paper's footnote semantics ("works for at least
  // one department"). See the ClassLevelInversionOverspecializes test.
  db->MarkClassRelationship("TOTAL-NUMBER");
  db->Assert("EMPLOYEE", "TOTAL-NUMBER",
             std::to_string(options.num_employees));
  const bool synonyms = options.synonym_density > 0;
  if (synonyms) {
    db->Assert("EARNS", "SYN", "GETS-PAID");
  }

  for (int d = 0; d < options.num_departments; ++d) {
    std::string dept = "DEPT-" + std::to_string(d);
    domain.departments.push_back(dept);
    db->Assert(dept, "IN", "DEPARTMENT");
  }

  // One manager per department, then rank-and-file reporting to it.
  std::vector<std::string> dept_managers(options.num_departments);
  for (int d = 0; d < options.num_departments; ++d) {
    std::string name = "MGR-" + std::to_string(d);
    dept_managers[d] = name;
    OrgRecord rec;
    rec.name = name;
    rec.department = domain.departments[d];
    rec.salary = 90000 + d * 1000;
    domain.records.push_back(rec);
  }
  for (int i = 0; i < options.num_employees; ++i) {
    OrgRecord rec;
    rec.name = "EMP-" + std::to_string(i);
    int d = static_cast<int>(rng.Uniform(options.num_departments));
    rec.department = domain.departments[d];
    rec.salary = 20000 + static_cast<int>(rng.Uniform(40000));
    rec.manager = dept_managers[d];
    domain.records.push_back(rec);
  }
  if (options.violate_salaries && !domain.records.empty()) {
    // Plant one violation: the last employee out-earns their manager.
    domain.records.back().salary = 200000;
  }

  // The per-employee facts land as one run.
  RunLoader<LooseDb> loader(db);
  EntityTable& e = db->entities();
  auto assert_fact = [&](std::string_view s, std::string_view r,
                         std::string_view t) {
    loader.Assert(Fact(e.Intern(s), e.Intern(r), e.Intern(t)));
  };
  for (const OrgRecord& rec : domain.records) {
    domain.employees.push_back(rec.name);
    bool is_manager = rec.manager.empty();
    assert_fact(rec.name, "IN", is_manager ? "MANAGER" : "EMPLOYEE");
    assert_fact(rec.name, "WORKS-FOR", rec.department);
    const char* earns =
        (synonyms && rng.Bernoulli(options.synonym_density)) ? "GETS-PAID"
                                                             : "EARNS";
    assert_fact(rec.name, earns, "$" + std::to_string(rec.salary));
    assert_fact("$" + std::to_string(rec.salary), "IN", "SALARY");
    if (!is_manager) {
      assert_fact(rec.name, "MANAGER", rec.manager);
    }
  }
  loader.Flush();

  if (options.salary_integrity_rule) {
    Status s = db->DefineRule(
        "salary-cap: (?X, MANAGER, ?M), (?X, EARNS, ?U), (?M, EARNS, ?V), "
        "(?U, IN, SALARY), (?V, IN, SALARY) => (?V, >=, ?U)",
        RuleKind::kIntegrity);
    (void)s;  // only fails if redefined; generators run once per db
  }
  return domain;
}

void BuildOrgRelational(const OrgDomain& domain, const OrgOptions& options,
                        EntityTable* entities,
                        baseline::Catalog* catalog) {
  (void)options;
  auto emp = catalog->CreateRelation(
      "EMP", {"NAME", "DEPT", "SALARY", "MANAGER"});
  auto dept = catalog->CreateRelation("DEPT", {"NAME"});
  if (!emp.ok() || !dept.ok()) return;
  for (const std::string& d : domain.departments) {
    (*dept)->Insert({entities->Intern(d)});
  }
  const EntityId none = entities->Intern("NONE");
  for (const OrgRecord& rec : domain.records) {
    (*emp)->Insert({entities->Intern(rec.name),
                    entities->Intern(rec.department),
                    entities->Intern("$" + std::to_string(rec.salary)),
                    rec.manager.empty() ? none
                                        : entities->Intern(rec.manager)});
  }
  (*emp)->CreateIndex("NAME");
  (*emp)->CreateIndex("DEPT");
  (*dept)->CreateIndex("NAME");
}

}  // namespace lsd::workload

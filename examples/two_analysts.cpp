// Two analysts over one raw database (§2.3's view-management questions):
// duplicate-view detection prevents re-materializing an identical view
// from tape, and the update history lets the second analyst inspect and
// reuse the first analyst's data cleaning.

#include <iostream>

#include "core/dbms.h"
#include "relational/datagen.h"

namespace {

using namespace statdb;

#define CHECK_OK(expr)                                      \
  do {                                                      \
    auto _s = (expr);                                       \
    if (!_s.ok()) {                                         \
      std::cerr << "FATAL: " << _s.ToString() << std::endl; \
      std::exit(1);                                         \
    }                                                       \
  } while (0)

template <typename T>
T Unwrap(Result<T> r) {
  if (!r.ok()) {
    std::cerr << "FATAL: " << r.status().ToString() << std::endl;
    std::exit(1);
  }
  return std::move(r).value();
}

}  // namespace

int main() {
  std::cout << "=== two_analysts ===\n\n";
  StorageManager storage;
  Unwrap(storage.AddDevice("tape", DeviceCostModel::Tape(), 1024));
  Unwrap(storage.AddDevice("disk", DeviceCostModel::Disk(), 4096));
  StatisticalDbms dbms(&storage);

  CensusOptions opts;
  opts.rows = 10000;
  Rng rng(11);
  CHECK_OK(dbms.LoadRawDataSet("census",
                               Unwrap(GenerateCensusMicrodata(opts, &rng))));

  // Analyst A studies pollution effects by race: everything but REGION.
  ViewDefinition def_a;
  def_a.source = "census";
  def_a.predicate = Gt(Col("AGE"), Lit(int64_t{18}));
  ViewCreation a = Unwrap(
      dbms.CreateView("alice_adults", def_a, MaintenancePolicy::kIncremental));
  std::cout << "analyst A materialized '" << a.name << "'"
            << (a.reused ? " (reused!)" : " (from tape)") << "\n";

  SimulatedDevice* tape = Unwrap(storage.GetDevice("tape"));
  uint64_t tape_reads_after_a = tape->stats().block_reads;

  // Analyst B asks for the *same* view under another name: the DBMS
  // must hand back A's view instead of re-reading the tape (§2.3).
  ViewDefinition def_b = def_a;
  ViewCreation b = Unwrap(
      dbms.CreateView("bob_adults", def_b, MaintenancePolicy::kIncremental));
  std::cout << "analyst B asked for the same definition; got '" << b.name
            << "'" << (b.reused ? " (reused, zero tape I/O)" : "") << "\n";
  std::cout << "tape reads during B's request: "
            << tape->stats().block_reads - tape_reads_after_a << "\n\n";

  // Analyst A cleans the data and leaves a documented history.
  UpdateSpec clean1;
  clean1.predicate = Gt(Col("AGE"), Lit(int64_t{120}));
  clean1.column = "AGE";
  clean1.value = nullptr;
  clean1.description = "A: impossible ages -> missing";
  Unwrap(dbms.Update(a.name, clean1));
  UpdateSpec clean2;
  clean2.predicate = Gt(Col("INCOME"), Lit(5e6));
  clean2.column = "INCOME";
  clean2.value = nullptr;
  clean2.description = "A: keypunch incomes -> missing";
  Unwrap(dbms.Update(a.name, clean2));

  // Analyst B later examines what was done instead of redoing the
  // "mundane and time consuming data checking operations" (§3.2).
  std::cout << "analyst B reads A's update history:\n";
  const ViewRecord* rec = Unwrap(
      static_cast<const ManagementDatabase&>(dbms.management_db())
          .GetView(a.name));
  for (const UpdateLogEntry* e : rec->history.EntriesSince(0)) {
    std::cout << "  v" << e->version << ": " << e->description << " ("
              << CellCount(e->changes) << " cells)\n";
  }

  // B now builds a genuinely different view — same cleaning inherited
  // because it shares A's concrete view.
  auto b_median = Unwrap(dbms.Query(b.name, "median", "INCOME"));
  std::cout << "\nanalyst B's median income on the shared, cleaned view: "
            << b_median.result.ToString() << "\n";

  // A third, different definition does go back to tape.
  ViewDefinition def_c;
  def_c.source = "census";
  def_c.predicate = Eq(Col("SEX"), Lit(int64_t{1}));
  uint64_t tape_before_c = tape->stats().block_reads;
  ViewCreation c = Unwrap(
      dbms.CreateView("carol_women", def_c, MaintenancePolicy::kIncremental));
  std::cout << "\nanalyst C's different view '" << c.name
            << "' re-read the tape: "
            << tape->stats().block_reads - tape_before_c
            << " blocks\n";

  std::cout << "\nregistered views:";
  for (const std::string& name : dbms.ViewNames()) {
    std::cout << " " << name;
  }
  std::cout << "\n";
  return 0;
}

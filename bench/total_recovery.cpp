// Total-failure recovery bench: a persistent group under continuous load
// loses every member inside one failure window, halts, and a subset of
// the members restarts from their durable versioned logs. Measures the
// outage phases — crash to halt, restart to the recovery-view install
// (version-vector exchange, LCP agreement, ragged trim, replay), install
// to the first fresh delivery — and the durability ledger: records kept
// by the longest common durable prefix vs. the ragged write-behind tail
// lost. Sweeps the group size, how long the group ran before dying (the
// durable-log length), and how many members come back.

#include <cstdio>

#include "bench_util.hpp"
#include "workload/table.hpp"
#include "workload/recovery.hpp"

namespace {

using spindle::workload::Table;
using spindle::workload::TotalRecoveryConfig;
using spindle::workload::TotalRecoveryResult;
using spindle::workload::run_total_recovery;

std::string us(spindle::sim::Nanos ns) {
  return Table::num(static_cast<double>(ns) / 1000.0, 1);
}

void record(spindle::bench::BenchReport& report, const std::string& label,
            const TotalRecoveryResult& r) {
  report.add_metric(label + "/halt_us",
                    static_cast<double>(r.halt_ns) / 1e3);
  report.add_metric(label + "/install_us",
                    static_cast<double>(r.install_ns) / 1e3);
  report.add_metric(label + "/first_new_us",
                    static_cast<double>(r.first_new_delivery_ns) / 1e3);
  report.add_metric(label + "/lcp_records",
                    static_cast<double>(r.lcp_records));
  report.add_metric(label + "/lost_records",
                    static_cast<double>(r.lost_records));
}

const std::vector<std::string> kColumns = {
    "halt_us", "install_us", "first_new_us",
    "lcp_rec", "lost_rec", "replayed", "fresh"};

std::vector<std::string> row_of(const TotalRecoveryResult& r) {
  return {us(r.halt_ns),
          us(r.install_ns),
          us(r.first_new_delivery_ns),
          Table::integer(r.lcp_records),
          Table::integer(r.lost_records),
          Table::integer(r.replayed),
          Table::integer(r.delivered_after)};
}

}  // namespace

int main() {
  spindle::bench::BenchReport report("total_recovery");
  {
    const TotalRecoveryConfig base;
    report.set_provenance(
        base.seed, static_cast<std::uint64_t>(base.crash_at /
                                              base.send_interval));
  }

  {
    Table t("Total-failure recovery vs. group size (all members restart)",
            [] {
              std::vector<std::string> c = {"nodes"};
              c.insert(c.end(), kColumns.begin(), kColumns.end());
              return c;
            }());
    for (const std::size_t nodes : {3, 4, 6, 8}) {
      TotalRecoveryConfig cfg;
      cfg.nodes = nodes;
      cfg.restarters = nodes;
      const TotalRecoveryResult r = run_total_recovery(cfg);
      record(report, "nodes_" + std::to_string(nodes), r);
      std::vector<std::string> row = {Table::integer(nodes)};
      const auto vals = row_of(r);
      row.insert(row.end(), vals.begin(), vals.end());
      t.row(row);
    }
    t.print();
  }

  {
    Table t("Durability ledger vs. pre-crash runtime (4 nodes)",
            [] {
              std::vector<std::string> c = {"crash_at_us"};
              c.insert(c.end(), kColumns.begin(), kColumns.end());
              return c;
            }());
    for (const spindle::sim::Nanos crash_at :
         {spindle::sim::micros(500), spindle::sim::millis(1),
          spindle::sim::millis(2), spindle::sim::millis(4)}) {
      TotalRecoveryConfig cfg;
      cfg.crash_at = crash_at;
      const TotalRecoveryResult r = run_total_recovery(cfg);
      record(report, "crash_at_us_" + us(crash_at), r);
      std::vector<std::string> row = {us(crash_at)};
      const auto vals = row_of(r);
      row.insert(row.end(), vals.begin(), vals.end());
      t.row(row);
    }
    t.print();
  }

  {
    Table t("Recovery vs. rejoining quorum (4 nodes)",
            [] {
              std::vector<std::string> c = {"restarters"};
              c.insert(c.end(), kColumns.begin(), kColumns.end());
              return c;
            }());
    for (const std::size_t restarters : {4, 3, 2}) {
      TotalRecoveryConfig cfg;
      cfg.restarters = restarters;
      const TotalRecoveryResult r = run_total_recovery(cfg);
      record(report, "restarters_" + std::to_string(restarters), r);
      std::vector<std::string> row = {Table::integer(restarters)};
      const auto vals = row_of(r);
      row.insert(row.end(), vals.begin(), vals.end());
      t.row(row);
    }
    t.print();
  }

  report.write();
  return 0;
}

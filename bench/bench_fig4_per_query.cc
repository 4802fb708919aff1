// Reproduces Figure 4: per-query runtime for the TPC-H workload under (a)
// no indexes and (b) the indexes the native advisor recommends at the
// three-minute time budget. The low-quality 3-minute configuration makes
// specific queries — the Q18 instances, positions ~646..684 in the
// template-major sequence — run several times SLOWER than with no indexes,
// because the optimizer picks a bad plan off a misestimated
// HAVING-aggregate cardinality.

#include "bench/bench_common.h"
#include "engine/advisor.h"
#include "engine/cost_model.h"

namespace querc::bench {
namespace {

/// "Q<id>". Built by appending: GCC 12 reports a false -Wrestrict on
/// `"Q" + std::to_string(id)` in Release.
std::string TemplateLabel(int id) {
  std::string label = "Q";
  label += std::to_string(id);
  return label;
}

int Main() {
  std::printf("=== Figure 4: per-query runtime, no indexes vs 3-minute "
              "indexes ===\n");
  workload::Workload tpch = TpchWorkload();
  std::vector<std::string> texts;
  for (const auto& q : tpch) texts.push_back(q.text);

  engine::Catalog catalog = engine::TpchCatalog();
  engine::CostModel model(&catalog);

  engine::AdvisorOptions options;
  options.budget_minutes = 3.0;
  engine::TuningAdvisor advisor(&model, options);
  auto rec = advisor.Recommend(texts);
  std::printf("3-minute native config: %s (refined=%d)\n",
              engine::ConfigToString(rec.config).c_str(),
              rec.completed_refinement ? 1 : 0);

  auto no_index = engine::RunWorkload(model, texts, {});
  auto three_min = engine::RunWorkload(model, texts, rec.config);

  // Full per-query series (the figure's x-axis) to CSV.
  util::TableWriter series(
      {"query_index", "template", "no_indexes_s", "three_minute_indexes_s"});
  for (size_t i = 0; i < texts.size(); ++i) {
    series.AddRow({std::to_string(i),
                   TemplateLabel(tpch[i].template_id),
                   util::TableWriter::Num(no_index.per_query_seconds[i], 4),
                   util::TableWriter::Num(three_min.per_query_seconds[i], 4)});
  }
  util::Status csv = series.WriteCsv("fig4_per_query.csv");
  if (csv.ok()) std::printf("(per-query series: fig4_per_query.csv)\n");

  // Aggregated per-template view for the terminal.
  util::TableWriter table({"template", "first_pos", "no_indexes_avg_s",
                           "3min_indexes_avg_s", "ratio"});
  const int kInstances = 38;
  for (int t = 1; t <= 22; ++t) {
    size_t first = static_cast<size_t>((t - 1) * kInstances);
    double base = 0.0;
    double tuned = 0.0;
    for (int i = 0; i < kInstances; ++i) {
      base += no_index.per_query_seconds[first + static_cast<size_t>(i)];
      tuned += three_min.per_query_seconds[first + static_cast<size_t>(i)];
    }
    base /= kInstances;
    tuned /= kInstances;
    table.AddRow({TemplateLabel(t), std::to_string(first),
                  util::TableWriter::Num(base, 3),
                  util::TableWriter::Num(tuned, 3),
                  util::TableWriter::Num(tuned / base, 2)});
  }
  EmitTable(table,
            "Figure 4 (aggregated): mean per-query runtime by template",
            "fig4_per_template.csv");

  std::printf("\ntotals: no indexes %.1fs, 3-minute indexes %.1fs\n",
              no_index.total_seconds, three_min.total_seconds);
  // Highlight the regression window the paper calls out (Q18: ~640-680).
  size_t q18_first = 17 * kInstances;
  double worst_ratio = 0.0;
  for (int i = 0; i < kInstances; ++i) {
    size_t idx = q18_first + static_cast<size_t>(i);
    worst_ratio = std::max(worst_ratio,
                           three_min.per_query_seconds[idx] /
                               no_index.per_query_seconds[idx]);
  }
  std::printf("Q18 instances occupy positions %zu..%zu; worst slowdown "
              "under the 3-minute indexes: %.1fx\n",
              q18_first, q18_first + kInstances - 1, worst_ratio);
  return 0;
}

}  // namespace
}  // namespace querc::bench

int main() { return querc::bench::Main(); }

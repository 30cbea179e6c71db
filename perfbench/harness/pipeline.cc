#include "pipeline.h"

#include <cstring>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "engine/metrics.h"
#include "engine/release_engine.h"
#include "engine/release_io.h"
#include "strategy/factory.h"

namespace perfbench {

using namespace dpcube;

Result<CuratedRelease> Curate(const data::Schema& schema,
                              const std::string& data_csv,
                              const marginal::Workload& workload,
                              const std::string& method, double epsilon,
                              std::uint64_t noise_seed,
                              const std::string& out_csv, StageTimes* times) {
  Clock::time_point t = Clock::now();
  DPCUBE_ASSIGN_OR_RETURN(data::Dataset dataset,
                          data::ReadCsv(schema, data_csv));
  times->csv_read += SecondsSince(t);

  t = Clock::now();
  data::SparseCounts counts = data::SparseCounts::FromDataset(dataset);
  times->counts += SecondsSince(t);

  t = Clock::now();
  DPCUBE_ASSIGN_OR_RETURN(strategy::MethodInstance instance,
                          strategy::MakeMethod(method, workload));
  times->construct += SecondsSince(t);

  engine::ReleaseOptions options;
  options.params.epsilon = epsilon;
  options.budget_mode = instance.budget_mode;
  Rng rng(noise_seed);
  DPCUBE_ASSIGN_OR_RETURN(
      engine::ReleaseOutcome outcome,
      engine::ReleaseWorkload(*instance.strategy, counts, options, &rng));
  times->budget += outcome.timings.budget_seconds;
  times->measure += outcome.timings.measure_seconds;
  times->consistency += outcome.timings.consistency_seconds;

  t = Clock::now();
  DPCUBE_ASSIGN_OR_RETURN(linalg::Vector variances,
                          instance.strategy->PredictCellVariances(
                              outcome.group_budgets, options.params));
  DPCUBE_RETURN_NOT_OK(engine::WriteReleaseCsv(
      out_csv, outcome.marginals, variances, &outcome.timings));
  times->csv_write += SecondsSince(t);
  times->cells_released += static_cast<double>(workload.TotalCells());
  return CuratedRelease{std::move(counts), std::move(outcome.marginals),
                        std::move(variances)};
}

double RelativeError(const marginal::Workload& workload,
                     const CuratedRelease& release) {
  auto report =
      engine::EvaluateRelease(workload, release.counts, release.marginals);
  return report.ok() ? report.value().relative_error : -1.0;
}

bool SameBits(const std::vector<marginal::MarginalTable>& a,
              const std::vector<marginal::MarginalTable>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].alpha() != b[i].alpha() ||
        a[i].num_cells() != b[i].num_cells() ||
        std::memcmp(a[i].values().data(), b[i].values().data(),
                    a[i].num_cells() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench

// The curator's side of dpcube, driven through the library's public
// functions with a timer around each call: CSV read -> counts ->
// strategy construction -> ReleaseWorkload (budget, measure,
// consistency) -> release CSV write. The release workload runs this as
// its op; every serve workload runs it at set-up to make the release it
// serves.

#ifndef PERFBENCH_HARNESS_PIPELINE_H_
#define PERFBENCH_HARNESS_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/contingency_table.h"
#include "data/schema.h"
#include "linalg/matrix.h"
#include "marginal/marginal_table.h"
#include "marginal/workload.h"

namespace perfbench {

/// Wall-clock of each pipeline stage, in seconds.
struct StageTimes {
  double csv_read = 0.0;
  double counts = 0.0;
  double construct = 0.0;
  double budget = 0.0;
  double measure = 0.0;
  double consistency = 0.0;
  double csv_write = 0.0;
  double cells_released = 0.0;
};

struct CuratedRelease {
  dpcube::data::SparseCounts counts;
  std::vector<dpcube::marginal::MarginalTable> marginals;
  dpcube::linalg::Vector cell_variances;
};

/// Runs the curator pipeline over `data_csv` and writes the release to
/// `out_csv`. `noise_seed` seeds the Laplace noise, so the same inputs
/// give a bit-identical release.
dpcube::Result<CuratedRelease> Curate(const dpcube::data::Schema& schema,
                                      const std::string& data_csv,
                                      const dpcube::marginal::Workload& workload,
                                      const std::string& method,
                                      double epsilon, std::uint64_t noise_seed,
                                      const std::string& out_csv,
                                      StageTimes* times);

/// engine::EvaluateRelease relative error of `release` against the true
/// marginals of its counts.
double RelativeError(const dpcube::marginal::Workload& workload,
                     const CuratedRelease& release);

/// True iff both lists hold the same masks and bit-identical values.
bool SameBits(const std::vector<dpcube::marginal::MarginalTable>& a,
              const std::vector<dpcube::marginal::MarginalTable>& b);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PIPELINE_H_

#include "core/guardrail.h"

#include <cmath>

#include "ml/linear_regression.h"

namespace rockhopper::core {

namespace {

// The trend decomposition behind §4.3's regression model on "iteration
// number and input cardinality". Two stages instead of one joint fit:
// input size and iteration are often collinear in production (data grows as
// the query recurs), and a joint fit would split the blame arbitrarily.
// Fitting data size first deliberately attributes as much runtime growth as
// possible to the input, so only growth the input cannot explain counts
// against the tuner — the conservative direction for a guardrail.
struct TrendFit {
  bool ok = false;
  ml::LinearRegression size_model{1e-8};    // runtime ~ data size
  ml::LinearRegression trend_model{1e-8};   // residual ~ iteration
  double mean_runtime = 0.0;
};

TrendFit FitTrend(const std::vector<Guardrail::TrendRow>& history) {
  TrendFit fit;
  if (history.size() < 3) return fit;
  ml::Dataset size_data;
  double sum = 0.0;
  for (const Guardrail::TrendRow& obs : history) {
    size_data.Add({obs.data_size}, obs.runtime);
    sum += obs.runtime;
  }
  fit.mean_runtime = sum / static_cast<double>(history.size());
  if (!fit.size_model.Fit(size_data).ok()) return fit;
  ml::Dataset trend_data;
  for (const Guardrail::TrendRow& obs : history) {
    const double residual =
        obs.runtime - fit.size_model.Predict({obs.data_size});
    trend_data.Add({static_cast<double>(obs.iteration)}, residual);
  }
  if (!fit.trend_model.Fit(trend_data).ok()) return fit;
  fit.ok = true;
  return fit;
}

}  // namespace

double Guardrail::PredictNextRuntime() const {
  const TrendFit fit = FitTrend(history_);
  if (!fit.ok) return -1.0;
  const TrendRow& last = history_.back();
  return fit.size_model.Predict({last.data_size}) +
         fit.trend_model.Predict({static_cast<double>(last.iteration + 1)});
}

bool Guardrail::Record(const Observation& obs) {
  if (disabled_) return false;
  history_.push_back({obs.data_size, obs.runtime, obs.iteration});
  // Failure strikes run ahead of the exploration-budget gate: a config that
  // keeps killing jobs is disabled fast, while a lone failure resets before
  // the consecutive counter reaches the strike threshold. Failure strikes
  // are sticky across successes so a flapping query still drains them.
  if (obs.failed) {
    ++consecutive_failures_;
    if (options_.failure_strike_threshold > 0 &&
        consecutive_failures_ % options_.failure_strike_threshold == 0) {
      ++failure_strikes_;
      if (failure_strikes_ >= options_.max_failure_strikes) {
        disabled_ = true;
        return false;
      }
    }
  } else {
    consecutive_failures_ = 0;
  }
  if (static_cast<int>(history_.size()) <= options_.min_iterations) {
    return true;
  }
  const TrendFit fit = FitTrend(history_);
  if (!fit.ok) return true;
  // Projected cumulative regression attributable to tuning: the iteration
  // trend extrapolated over the whole history. A positive drift exceeding
  // `regression_threshold` of the typical runtime is a strike.
  const double slope = fit.trend_model.coefficients()[0];
  const double projected_drift =
      slope * static_cast<double>(history_.back().iteration + 1);
  if (projected_drift >
      options_.regression_threshold * std::fabs(fit.mean_runtime)) {
    ++strikes_;
    if (strikes_ >= options_.max_strikes) disabled_ = true;
  } else {
    strikes_ = 0;
  }
  return !disabled_;
}

Status Guardrail::Save(const std::string& prefix,
                       common::ArchiveWriter* writer) const {
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutBool(prefix + ".disabled", disabled_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutInt(prefix + ".strikes", strikes_));
  ROCKHOPPER_RETURN_IF_ERROR(
      writer->PutInt(prefix + ".failure_strikes", failure_strikes_));
  ROCKHOPPER_RETURN_IF_ERROR(writer->PutInt(prefix + ".consecutive_failures",
                                            consecutive_failures_));
  // One row per observation: [data_size, runtime, iteration]. Iterations
  // fit exactly in doubles.
  std::vector<std::vector<double>> rows;
  rows.reserve(history_.size());
  for (const TrendRow& row : history_) {
    rows.push_back(
        {row.data_size, row.runtime, static_cast<double>(row.iteration)});
  }
  return writer->PutDoubleRows(prefix + ".history", rows);
}

Status Guardrail::Load(const std::string& prefix,
                       const common::ArchiveReader& reader) {
  ROCKHOPPER_ASSIGN_OR_RETURN(disabled, reader.GetBool(prefix + ".disabled"));
  ROCKHOPPER_ASSIGN_OR_RETURN(strikes, reader.GetInt(prefix + ".strikes"));
  ROCKHOPPER_ASSIGN_OR_RETURN(failure_strikes,
                              reader.GetInt(prefix + ".failure_strikes"));
  ROCKHOPPER_ASSIGN_OR_RETURN(
      consecutive, reader.GetInt(prefix + ".consecutive_failures"));
  ROCKHOPPER_ASSIGN_OR_RETURN(rows, reader.GetDoubleRows(prefix + ".history"));
  std::vector<TrendRow> history;
  history.reserve(rows.size());
  for (const std::vector<double>& row : rows) {
    if (row.size() != 3) {
      return Status::InvalidArgument("guardrail history row is not 3 wide");
    }
    history.push_back({row[0], row[1], static_cast<int>(row[2])});
  }
  disabled_ = disabled;
  strikes_ = static_cast<int>(strikes);
  failure_strikes_ = static_cast<int>(failure_strikes);
  consecutive_failures_ = static_cast<int>(consecutive);
  history_ = std::move(history);
  return Status::OK();
}

size_t Guardrail::ApproxBytes() const {
  return sizeof(*this) + history_.size() * sizeof(TrendRow);
}

}  // namespace rockhopper::core

// Cartesian design-space grids over value-semantic system specs.
//
// A Grid is a base spec::SystemSpec plus parameter axes. Each axis is a
// named list of labelled mutations; the grid enumerates the cartesian
// product in row-major order (the first axis varies slowest), which is
// exactly the iteration order of the nested for-loops the bench programs
// used to hand-roll:
//
//   sweep::Grid grid(base);
//   grid.capacitance_axis({10e-6, 22e-6, 47e-6})
//       .axis("policy", {{"hibernus", [](spec::SystemSpec& s) {
//                           s.policy = spec::Hibernus{};
//                         }},
//                        {"quickrecall", [](spec::SystemSpec& s) {
//                           s.policy = spec::QuickRecall{};
//                         }}});
//   grid.point(3)  // C = 22 uF (axis 0, index 1) x hibernus (axis 1, index 0)
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "edc/spec/system_spec.h"

namespace edc::sweep {

/// Edits one parameter of a spec (a grid point applies one per axis).
using Mutator = std::function<void(spec::SystemSpec&)>;

/// One labelled position on an axis.
struct AxisValue {
  std::string label;
  Mutator apply;
};

struct Axis {
  std::string name;
  std::vector<AxisValue> values;
};

/// One fully resolved grid point: the mutated spec plus the axis labels
/// that produced it (labels[i] belongs to axes()[i]).
struct Point {
  std::size_t index = 0;
  spec::SystemSpec spec;
  std::vector<std::string> labels;
};

class Grid {
 public:
  explicit Grid(spec::SystemSpec base);

  /// Adds one cartesian axis; earlier axes vary slowest. Every value's
  /// mutator must be callable; the value list must not be empty.
  Grid& axis(std::string name, std::vector<AxisValue> values);

  /// Numeric axis with a custom setter; points are labelled by `label`
  /// (default: engineering-free "%g" formatting).
  Grid& numeric_axis(std::string name, const std::vector<double>& values,
                     const std::function<void(spec::SystemSpec&, double)>& set,
                     const std::function<std::string(double)>& label = {});

  /// Axis over storage.capacitance, labelled in engineering notation.
  Grid& capacitance_axis(const std::vector<Farads>& values);

  /// Axis over workload.seed (per-point RNG isolation for stochastic
  /// workloads).
  Grid& workload_seed_axis(const std::vector<std::uint64_t>& seeds);

  /// Axis over a measured-dataset directory: one value per "*.csv" file in
  /// `dataset_dir` (sorted by filename; see spec::list_trace_csvs), each
  /// setting spec.source to the loaded "time,volts" trace behind the
  /// rectifier front-end. Labels are the file basenames, so reports and
  /// CSVs name the dataset file directly — the paper's
  /// measured-source comparisons become one-liners:
  ///
  ///   grid.voltage_trace_dir_axis("harvester", "datasets/")
  ///       .capacitance_axis({10e-6, 47e-6});
  Grid& voltage_trace_dir_axis(std::string name, const std::string& dataset_dir,
                               Ohms series_resistance = 50.0);

  /// As voltage_trace_dir_axis, for "time,watts" traces feeding the
  /// harvester-converter front-end.
  Grid& power_trace_dir_axis(std::string name, const std::string& dataset_dir);

  /// Number of points: the product of the axis sizes (1 = just the base).
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] const std::vector<Axis>& axes() const noexcept { return axes_; }
  [[nodiscard]] const spec::SystemSpec& base() const noexcept { return base_; }

  /// Materialises point `index` (row-major). Axis mutators are applied to a
  /// copy of the base spec in axis order.
  [[nodiscard]] Point point(std::size_t index) const;

 private:
  spec::SystemSpec base_;
  std::vector<Axis> axes_;
};

}  // namespace edc::sweep

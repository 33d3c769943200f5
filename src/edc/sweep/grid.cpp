#include "edc/sweep/grid.h"

#include <cstdio>
#include <utility>

#include "edc/common/check.h"
#include "edc/sim/table.h"
#include "edc/spec/trace_loaders.h"

namespace edc::sweep {

Grid::Grid(spec::SystemSpec base) : base_(std::move(base)) {}

Grid& Grid::axis(std::string name, std::vector<AxisValue> values) {
  EDC_CHECK(!values.empty(), "axis '" + name + "' has no values");
  for (const auto& value : values) {
    EDC_CHECK(value.apply != nullptr,
              "axis '" + name + "' value '" + value.label + "' has no mutator");
  }
  axes_.push_back(Axis{std::move(name), std::move(values)});
  return *this;
}

Grid& Grid::numeric_axis(std::string name, const std::vector<double>& values,
                         const std::function<void(spec::SystemSpec&, double)>& set,
                         const std::function<std::string(double)>& label) {
  EDC_CHECK(set != nullptr, "numeric axis '" + name + "' has no setter");
  std::vector<AxisValue> axis_values;
  axis_values.reserve(values.size());
  for (double value : values) {
    std::string text;
    if (label) {
      text = label(value);
    } else {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%g", value);
      text = buffer;
    }
    axis_values.push_back(AxisValue{
        std::move(text), [set, value](spec::SystemSpec& s) { set(s, value); }});
  }
  return axis(std::move(name), std::move(axis_values));
}

Grid& Grid::capacitance_axis(const std::vector<Farads>& values) {
  return numeric_axis(
      "capacitance", values,
      [](spec::SystemSpec& s, double c) { s.storage.capacitance = c; },
      [](double c) { return sim::Table::eng(c, "F", 1); });
}

Grid& Grid::voltage_trace_dir_axis(std::string name, const std::string& dataset_dir,
                                   Ohms series_resistance) {
  std::vector<AxisValue> values;
  for (const auto& path : spec::list_trace_csvs(dataset_dir)) {
    // Load eagerly, once: every grid point then shares the loaded sample
    // block (a Waveform copy is O(1)) instead of re-reading the file per
    // instantiation.
    auto source = spec::load_voltage_trace_csv(path, series_resistance);
    std::string label = source.label;
    values.push_back(AxisValue{std::move(label),
                               [source = std::move(source)](spec::SystemSpec& s) {
                                 s.source = source;
                               }});
  }
  return axis(std::move(name), std::move(values));
}

Grid& Grid::power_trace_dir_axis(std::string name, const std::string& dataset_dir) {
  std::vector<AxisValue> values;
  for (const auto& path : spec::list_trace_csvs(dataset_dir)) {
    auto source = spec::load_power_trace_csv(path);
    std::string label = source.label;
    values.push_back(AxisValue{std::move(label),
                               [source = std::move(source)](spec::SystemSpec& s) {
                                 s.source = source;
                               }});
  }
  return axis(std::move(name), std::move(values));
}

Grid& Grid::workload_seed_axis(const std::vector<std::uint64_t>& seeds) {
  std::vector<AxisValue> values;
  values.reserve(seeds.size());
  for (std::uint64_t seed : seeds) {
    values.push_back(AxisValue{std::to_string(seed), [seed](spec::SystemSpec& s) {
                                 s.workload.seed = seed;
                               }});
  }
  return axis("seed", std::move(values));
}

std::size_t Grid::size() const noexcept {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.values.size();
  return n;
}

Point Grid::point(std::size_t index) const {
  EDC_CHECK(index < size(), "grid point index out of range");
  Point point;
  point.index = index;
  point.spec = base_;
  point.labels.reserve(axes_.size());

  // Row-major decomposition: the last axis has stride 1.
  std::size_t stride = size();
  for (const auto& axis : axes_) {
    stride /= axis.values.size();
    const std::size_t value_index = (index / stride) % axis.values.size();
    const AxisValue& value = axis.values[value_index];
    value.apply(point.spec);
    point.labels.push_back(value.label);
  }
  return point;
}

}  // namespace edc::sweep

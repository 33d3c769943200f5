// Uniformly-sampled time series with linear interpolation.
//
// Waveform is the exchange format between source generators, the analog
// front-end, the simulator's probes, and the CSV/plot utilities. Samples are
// uniformly spaced starting at t0; evaluation between samples interpolates
// linearly, and evaluation outside the span clamps to the end samples.
//
// The samples are immutable once built and every copy shares them, so
// copying a recorded trace (into a grid point, a probe spec, a source) is
// O(1). digest() names them by content for cache keys.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "edc/common/units.h"

namespace edc::trace {

class Waveform {
 public:
  Waveform() = default;

  /// Builds a waveform from explicit samples. `dt` must be > 0 unless the
  /// waveform has fewer than two samples.
  Waveform(Seconds t0, Seconds dt, std::vector<double> samples);

  /// Samples `fn` uniformly on [t0, t1] with `n` samples (n >= 2).
  static Waveform sample(const std::function<double(Seconds)>& fn, Seconds t0,
                         Seconds t1, std::size_t n);

  /// Copies share the sample block in O(1). There are no move operations:
  /// a move copies the handle, so a moved-from waveform keeps its samples
  /// and data_ never outlives its block.
  Waveform(const Waveform&) = default;
  Waveform& operator=(const Waveform&) = default;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] Seconds t0() const noexcept { return t0_; }
  [[nodiscard]] Seconds dt() const noexcept { return dt_; }
  [[nodiscard]] Seconds t_end() const noexcept;
  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return block_ ? block_->samples : kNoSamples;
  }

  /// SHA-256 of the samples' binary64 bit patterns in little-endian byte
  /// order, as 64 hex digits. Computed on the first call and kept in the
  /// shared block, so copies and threads compute it once between them.
  [[nodiscard]] const std::string& digest() const;

  /// Linear interpolation; clamps outside [t0, t_end].
  [[nodiscard]] double at(Seconds t) const;

  [[nodiscard]] double front() const { return data_[0]; }
  [[nodiscard]] double back() const { return data_[size_ - 1]; }

  /// Element-wise transform (e.g. unit conversion).
  [[nodiscard]] Waveform map(const std::function<double(double)>& fn) const;

  /// Resamples onto a new uniform grid spanning the same interval.
  [[nodiscard]] Waveform resample(std::size_t n) const;

  double min() const;
  double max() const;
  double mean() const;
  double rms() const;

  /// Trapezoidal integral over the full span (e.g. power -> energy).
  double integral() const;

 private:
  struct Block {
    explicit Block(std::vector<double> values) : samples(std::move(values)) {}
    std::vector<double> samples;
    mutable std::once_flag digest_once;
    mutable std::string digest;
  };
  static inline const std::vector<double> kNoSamples;

  Seconds t0_ = 0.0;
  Seconds dt_ = 0.0;
  std::shared_ptr<const Block> block_;  // null only when default-constructed
  // block_->samples' data and size beside the handle, so at() reads a
  // sample with no extra dependent load.
  const double* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Precomputed nonzero-segment index over a Waveform, for O(log n) activity
/// queries by trace-backed sources (the driver hints behind
/// sim::QuiescentEngine's event horizons).
///
/// A sample cell [i, i+1] is *active* when either endpoint sample is
/// nonzero — with linear interpolation the waveform is identically zero on
/// a cell exactly when both endpoints are zero. Maximal runs of active
/// cells become time segments; the clamped extrapolation beyond the sample
/// span extends the first/last segment to ±infinity when the edge sample is
/// nonzero. The index is built once at construction (sources build it next
/// to their waveform) and is immutable afterwards, so it is safe to
/// query from sweep worker threads.
class ActivityIndex {
 public:
  ActivityIndex() = default;

  /// Indexes `wave` (which may be empty: everything is then quiet forever).
  explicit ActivityIndex(const Waveform& wave);

  /// The latest time u >= t such that the interpolated (and edge-clamped)
  /// waveform is guaranteed to be exactly 0 throughout [t, u). Returns t
  /// when t lies inside an active segment, and +infinity when the waveform
  /// is zero from t onwards.
  [[nodiscard]] Seconds zero_until(Seconds t) const;

  /// Number of maximal active segments (diagnostics / tests).
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return segments_.size();
  }

 private:
  struct Segment {
    Seconds begin = 0.0;
    Seconds end = 0.0;  // half-open [begin, end); may be +infinity
  };
  std::vector<Segment> segments_;  // sorted, disjoint
};

/// A labelled waveform bundle, e.g. all probes from one simulation run.
struct TraceSet {
  std::vector<std::string> names;
  std::vector<Waveform> waves;

  void add(std::string name, Waveform wave);
  [[nodiscard]] const Waveform* find(const std::string& name) const noexcept;
};

}  // namespace edc::trace

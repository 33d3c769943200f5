#include "edc/trace/waveform.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string_view>

#include "edc/common/check.h"
#include "edc/common/sha256.h"

namespace edc::trace {

namespace {

/// SHA-256 of the samples' binary64 bit patterns, little-endian.
std::string hash_samples(const std::vector<double>& samples) {
  static_assert(std::numeric_limits<double>::is_iec559 && sizeof(double) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    return sha256_hex({reinterpret_cast<const char*>(samples.data()),
                       samples.size() * sizeof(double)});
  } else {
    std::string bytes(samples.size() * sizeof(double), '\0');
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto bits = std::bit_cast<std::uint64_t>(samples[i]);
      for (std::size_t b = 0; b < sizeof(double); ++b) {
        bytes[sizeof(double) * i + b] = static_cast<char>(bits >> (8 * b));
      }
    }
    return sha256_hex(bytes);
  }
}

}  // namespace

Waveform::Waveform(Seconds t0, Seconds dt, std::vector<double> samples)
    : t0_(t0), dt_(dt) {
  EDC_CHECK(samples.size() < 2 || dt_ > 0.0, "sample spacing must be positive");
  block_ = std::make_shared<Block>(std::move(samples));
  data_ = block_->samples.data();
  size_ = block_->samples.size();
}

Waveform Waveform::sample(const std::function<double(Seconds)>& fn, Seconds t0,
                          Seconds t1, std::size_t n) {
  EDC_CHECK(n >= 2, "need at least two samples");
  EDC_CHECK(t1 > t0, "time span must be positive");
  const Seconds dt = (t1 - t0) / static_cast<double>(n - 1);
  std::vector<double> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples[i] = fn(t0 + dt * static_cast<double>(i));
  }
  return Waveform(t0, dt, std::move(samples));
}

const std::string& Waveform::digest() const {
  static const std::string kEmpty = sha256_hex({});
  if (!block_) return kEmpty;
  std::call_once(block_->digest_once,
                 [this] { block_->digest = hash_samples(block_->samples); });
  return block_->digest;
}

Seconds Waveform::t_end() const noexcept {
  if (size_ < 2) return t0_;
  return t0_ + dt_ * static_cast<double>(size_ - 1);
}

double Waveform::at(Seconds t) const {
  EDC_CHECK(size_ != 0, "empty waveform");
  if (size_ == 1 || t <= t0_) return data_[0];
  if (t >= t_end()) return data_[size_ - 1];
  const double pos = (t - t0_) / dt_;
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  return data_[idx] + frac * (data_[idx + 1] - data_[idx]);
}

Waveform Waveform::map(const std::function<double(double)>& fn) const {
  std::vector<double> out(size_);
  std::transform(data_, data_ + size_, out.begin(), fn);
  return Waveform(t0_, dt_, std::move(out));
}

Waveform Waveform::resample(std::size_t n) const {
  EDC_CHECK(size_ != 0, "empty waveform");
  return sample([this](Seconds t) { return at(t); }, t0_, t_end(), n);
}

double Waveform::min() const {
  EDC_CHECK(size_ != 0, "empty waveform");
  return *std::min_element(data_, data_ + size_);
}

double Waveform::max() const {
  EDC_CHECK(size_ != 0, "empty waveform");
  return *std::max_element(data_, data_ + size_);
}

double Waveform::mean() const {
  EDC_CHECK(size_ != 0, "empty waveform");
  const double sum = std::accumulate(data_, data_ + size_, 0.0);
  return sum / static_cast<double>(size_);
}

double Waveform::rms() const {
  EDC_CHECK(size_ != 0, "empty waveform");
  double sq = 0.0;
  for (std::size_t i = 0; i < size_; ++i) sq += data_[i] * data_[i];
  return std::sqrt(sq / static_cast<double>(size_));
}

double Waveform::integral() const {
  if (size_ < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 1; i < size_; ++i) {
    acc += 0.5 * (data_[i - 1] + data_[i]) * dt_;
  }
  return acc;
}

ActivityIndex::ActivityIndex(const Waveform& wave) {
  const auto& samples = wave.samples();
  if (samples.empty()) return;
  constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
  if (samples.size() == 1) {
    if (samples.front() != 0.0) segments_.push_back(Segment{-kInf, kInf});
    return;
  }
  const Seconds t0 = wave.t0();
  const Seconds dt = wave.dt();
  const std::size_t cells = samples.size() - 1;
  for (std::size_t i = 0; i < cells;) {
    if (samples[i] == 0.0 && samples[i + 1] == 0.0) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < cells && !(samples[j] == 0.0 && samples[j + 1] == 0.0)) ++j;
    segments_.push_back(Segment{t0 + dt * static_cast<double>(i),
                                t0 + dt * static_cast<double>(j)});
    i = j;
  }
  // Edge clamping: outside [t0, t_end] the waveform holds the edge sample.
  if (samples.front() != 0.0) {
    if (segments_.empty() || segments_.front().begin > t0) {
      segments_.insert(segments_.begin(), Segment{-kInf, t0});
    } else {
      segments_.front().begin = -kInf;
    }
  }
  if (samples.back() != 0.0) {
    const Seconds t_end = wave.t_end();
    if (segments_.empty() || segments_.back().end < t_end) {
      segments_.push_back(Segment{t_end, kInf});
    } else {
      segments_.back().end = kInf;
    }
  }
}

Seconds ActivityIndex::zero_until(Seconds t) const {
  // First segment that ends after t (segments are sorted and disjoint).
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](Seconds value, const Segment& s) { return value < s.end; });
  if (it == segments_.end()) return std::numeric_limits<Seconds>::infinity();
  return it->begin <= t ? t : it->begin;
}

void TraceSet::add(std::string name, Waveform wave) {
  names.push_back(std::move(name));
  waves.push_back(std::move(wave));
}

const Waveform* TraceSet::find(const std::string& name) const noexcept {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return &waves[i];
  }
  return nullptr;
}

}  // namespace edc::trace

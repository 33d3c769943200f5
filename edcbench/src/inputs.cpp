#include "inputs.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "common.h"
#include "edc/trace/rng.h"

namespace edcbench {

Seeds derive_seeds(std::uint64_t seed) {
  Seeds seeds;
  seeds.wind = derive_seed(seed, "wind");
  seeds.rf = derive_seed(seed, "rf");
  seeds.fleet = derive_seed(seed, "fleet");
  seeds.workload = derive_seed(seed, "workload");
  seeds.trace = derive_seed(seed, "trace");
  return seeds;
}

edc::trace::Waveform gapped_sine_wave(std::uint64_t trace_seed) {
  edc::trace::Rng rng(trace_seed);
  constexpr int kCycles = 2;
  double onset[kCycles];
  double amplitude[kCycles];
  for (int c = 0; c < kCycles; ++c) {
    onset[c] = rng.uniform(0.0, 2.0);
    amplitude[c] = 3.3 * rng.uniform(0.94, 1.06);
  }
  return edc::trace::Waveform::sample(
      [&](edc::Seconds t) {
        const int cycle = std::min(kCycles - 1, static_cast<int>(t / 10.0));
        const double into = t - 10.0 * cycle - onset[cycle];
        return into >= 0.0 && into < 0.5
                   ? amplitude[cycle] * std::sin(2.0 * M_PI * 6.0 * into)
                   : 0.0;
      },
      0.0, kTraceSeconds, kTraceSamples);
}

edc::trace::WindTurbineSource::Params turbine() {
  edc::trace::WindTurbineSource::Params params;
  params.peak_voltage = 5.0;
  params.peak_frequency = 6.0;
  params.gust_period = 12.0;
  params.gust_jitter = 0.1;
  return params;
}

edc::trace::Waveform gust_wave(std::uint64_t wind_seed) {
  const edc::trace::WindTurbineSource source(turbine(), wind_seed, kTraceSeconds);
  edc::trace::Rng noise(wind_seed ^ 0xadc0ffee);
  return edc::trace::Waveform::sample(
      [&](edc::Seconds t) {
        return source.open_circuit_voltage(t) + kTraceNoise * noise.normal();
      },
      0.0, kTraceSeconds, kTraceSamples);
}

void write_trace_csv(const std::string& path, const edc::trace::Waveform& wave) {
  std::string text = "time,volts\n";
  text.reserve(wave.size() * 40);
  char buffer[64];
  const auto append = [&](double value) {
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
    if (ec != std::errc()) throw std::runtime_error("to_chars failed");
    text.append(buffer, end);
  };
  for (std::size_t i = 0; i < wave.size(); ++i) {
    append(wave.t0() + wave.dt() * static_cast<double>(i));
    text.push_back(',');
    append(wave.samples()[i]);
    text.push_back('\n');
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out.good()) throw std::runtime_error("cannot write '" + path + "'");
}

}  // namespace edcbench

// Seeded input generation: the recorded traces a workload loads, written
// as CSV at full precision so spec::load_voltage_trace_csv reads back the
// exact samples.
//
// trace::write_csv is not used here: it prints six significant digits, so
// a 400,001-sample 20 s trace gets the timestamp "10" on two rows and
// trace::read_csv rejects the file as non-uniform (see README.md,
// "Known defects").
#pragma once

#include <cstdint>
#include <string>

#include "edc/trace/voltage_sources.h"
#include "edc/trace/waveform.h"

namespace edcbench {

/// The per-workload seeds every generated input derives from one
/// command-line seed (see derive_seed).
struct Seeds {
  std::uint64_t wind = 0;      ///< wind-turbine gust schedules
  std::uint64_t rf = 0;        ///< RF reader-field burst schedules
  std::uint64_t fleet = 0;     ///< fleet coupling gains and slot phases
  std::uint64_t workload = 0;  ///< program data seeds
  std::uint64_t trace = 0;     ///< recorded-trace burst timing and amplitude
};

[[nodiscard]] Seeds derive_seeds(std::uint64_t seed);

/// Samples per recorded trace and its span: 20 s at 20 kHz.
inline constexpr std::size_t kTraceSamples = 400001;
inline constexpr double kTraceSeconds = 20.0;

/// The Fig 7 gapped sine: a 3.3 V, 6 Hz sine arriving in 0.5 s bursts
/// once per 10 s cycle, zero in between. The seed moves each burst's
/// onset within its cycle and scales its amplitude by up to +-6%.
[[nodiscard]] edc::trace::Waveform gapped_sine_wave(std::uint64_t trace_seed);

/// The Fig 8 micro wind turbine every wind input uses: 5 V and 6 Hz at the
/// gust peak, a gust every 12 s with spacing and strength jittered by 10%.
/// The turbine's defaults (10 s, 35%) let one seed's 30 s survey cost twice
/// another's: the seed decides whether a fourth gust starts inside 30 s
/// (or a second inside 10 s, a third inside 20 s), and some seeds leave
/// the capacitance queries with no threshold in [1 uF, 10 mF].
[[nodiscard]] edc::trace::WindTurbineSource::Params turbine();

/// Measurement noise of the recorded gust, volts rms.
inline constexpr double kTraceNoise = 1e-3;

/// A recorded gust: the turbine's open-circuit EMF over a seeded gust
/// schedule plus seeded Gaussian measurement noise, as an ADC records it.
/// The noise also keeps the trace free of exact zeros: a stalled rotor's
/// zeros serialize as "0" and every other sample as ~18 digits, so without
/// it each seed's stall time moved every cache key's length by ~8%.
[[nodiscard]] edc::trace::Waveform gust_wave(std::uint64_t wind_seed);

/// Writes "time,volts" rows with every double in shortest round-trip form
/// (std::to_chars). Throws std::runtime_error on I/O failure.
void write_trace_csv(const std::string& path, const edc::trace::Waveform& wave);

/// The generated CSVs of one workload run.
struct InputFiles {
  std::string gapped_csv;  ///< gapped_sine_wave, macro_scenarios only
  std::string gust_csv;    ///< gust_wave, fine_batch_sweep and cached_queries
};

}  // namespace edcbench

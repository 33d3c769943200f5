// Unit tests for the energy-environment substrate (edc/trace).
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "edc/common/sha256.h"
#include "edc/trace/csv.h"
#include "edc/trace/power_sources.h"
#include "edc/trace/rng.h"
#include "edc/trace/statistics.h"
#include "edc/trace/voltage_sources.h"
#include "edc/trace/waveform.h"

namespace edc::trace {
namespace {

// ---------------------------------------------------------------- Rng ------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

// ------------------------------------------------------------ Waveform -----

TEST(Waveform, SampleAndInterpolate) {
  const auto wave = Waveform::sample([](Seconds t) { return 2.0 * t; }, 0.0, 1.0, 11);
  EXPECT_EQ(wave.size(), 11u);
  EXPECT_DOUBLE_EQ(wave.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wave.at(0.5), 1.0);
  EXPECT_NEAR(wave.at(0.55), 1.1, 1e-12);
  // Clamping outside the span.
  EXPECT_DOUBLE_EQ(wave.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(wave.at(2.0), 2.0);
}

TEST(Waveform, IntegralOfConstant) {
  const auto wave = Waveform::sample([](Seconds) { return 3.0; }, 0.0, 2.0, 21);
  EXPECT_NEAR(wave.integral(), 6.0, 1e-12);
}

TEST(Waveform, IntegralOfRamp) {
  const auto wave = Waveform::sample([](Seconds t) { return t; }, 0.0, 1.0, 101);
  EXPECT_NEAR(wave.integral(), 0.5, 1e-9);
}

TEST(Waveform, Statistics) {
  const auto wave =
      Waveform::sample([](Seconds t) { return std::sin(2 * M_PI * t); }, 0.0, 1.0, 1001);
  const auto stats = summarize(wave);
  EXPECT_NEAR(stats.mean, 0.0, 1e-3);
  EXPECT_NEAR(stats.rms, 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(stats.max, 1.0, 1e-4);
  EXPECT_NEAR(stats.min, -1.0, 1e-4);
}

TEST(Waveform, ResamplePreservesShape) {
  const auto wave = Waveform::sample([](Seconds t) { return t * t; }, 0.0, 1.0, 501);
  const auto coarse = wave.resample(51);
  EXPECT_EQ(coarse.size(), 51u);
  EXPECT_NEAR(coarse.at(0.7), 0.49, 1e-3);
}

TEST(Waveform, MapTransforms) {
  const auto wave = Waveform::sample([](Seconds t) { return t; }, 0.0, 1.0, 11);
  const auto scaled = wave.map([](double v) { return 10.0 * v; });
  EXPECT_DOUBLE_EQ(scaled.at(0.5), 5.0);
}

TEST(Waveform, EmptyThrows) {
  Waveform wave;
  EXPECT_TRUE(wave.empty());
  EXPECT_THROW((void)wave.at(0.0), std::invalid_argument);
  EXPECT_THROW(wave.min(), std::invalid_argument);
}

TEST(Waveform, CopiesShareOneSampleBlock) {
  const auto wave = Waveform::sample([](Seconds t) { return t; }, 0.0, 1.0, 1001);
  const Waveform copy = wave;
  EXPECT_EQ(copy.samples().data(), wave.samples().data());
  EXPECT_EQ(&copy.digest(), &wave.digest());
}

// The digest hashes the samples' binary64 bit patterns, little-endian:
// expected values from coreutils sha256sum over those bytes.
TEST(Waveform, DigestHashesLittleEndianBitPatterns) {
  // 00 00 00 00 00 00 f0 3f | 00 00 00 00 00 00 00 00
  EXPECT_EQ(Waveform(0.0, 1.0, {1.0, 0.0}).digest(),
            "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65");
  // 00 00 00 00 00 00 f0 3f | 00 00 00 00 00 00 00 80
  EXPECT_EQ(Waveform(0.0, 1.0, {1.0, -0.0}).digest(),
            "5e9d905ef08923718da5998eb8ae14dc75a714656224d3753b679523d5a268d9");
  EXPECT_EQ(Waveform().digest(), sha256_hex(""));
}

TEST(Waveform, DigestIsOneValueAcrossThreads) {
  const auto wave =
      Waveform::sample([](Seconds t) { return std::sin(40.0 * t); }, 0.0, 1.0, 200001);
  std::vector<std::string> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&seen, i, copy = wave] { seen[i] = copy.digest(); });
  }
  for (std::thread& thread : threads) thread.join();
  const std::string bytes(reinterpret_cast<const char*>(wave.samples().data()),
                          wave.size() * sizeof(double));
  for (const std::string& digest : seen) EXPECT_EQ(digest, sha256_hex(bytes));
  EXPECT_EQ(wave.digest(), seen[0]);
}

// ------------------------------------------------------------- SHA-256 -----

TEST(Sha256, MatchesFips180Vectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(sha256_hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Lengths around the padding boundaries (one block or two for the tail).
// Input byte i is '0' + i % 75; expected values from coreutils sha256sum.
TEST(Sha256, MatchesSha256sumAroundBlockBoundaries) {
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "82ea60b904f221aee687a3fbf1c16e07b95cc4a66a5396fbba94d5c0c39a7741"},
      {56, "e3bdd54aee96296d602f4b1b4e105c2f2239d3826ec771fd0e100b8fca82c36e"},
      {63, "b7e43a2b31c1de0eac8ddf82620722f442a2df154b0acca01ee51c696c2d3924"},
      {64, "c42debc003290127e664a5c857c6e454cff4a7d512fcb8e5a942fb0d9c045e5f"},
      {65, "01ffe19716b8afac6c8c303f230f702106e7768dc31dec15c46f4e96c783d07e"},
  };
  for (const auto& [length, expected] : cases) {
    std::string input;
    for (std::size_t i = 0; i < length; ++i) input += static_cast<char>('0' + i % 75);
    EXPECT_EQ(sha256_hex(input), expected) << length << " bytes";
  }
}

// ------------------------------------------------------------- Outages -----

TEST(Outages, FindsSubThresholdIntervals) {
  // 1 Hz square-ish: below threshold in the middle third.
  const auto wave = Waveform::sample(
      [](Seconds t) { return (t > 1.0 && t < 2.0) ? 0.0 : 3.0; }, 0.0, 3.0, 3001);
  const auto outages = find_outages(wave, 1.5);
  ASSERT_EQ(outages.size(), 1u);
  EXPECT_NEAR(outages[0].start, 1.0, 0.01);
  EXPECT_NEAR(outages[0].duration, 1.0, 0.01);
  const auto stats = outage_stats(wave, 1.5);
  EXPECT_EQ(stats.count, 1u);
  EXPECT_NEAR(stats.availability, 2.0 / 3.0, 0.01);
}

TEST(Outages, NoneWhenAlwaysAbove) {
  const auto wave = Waveform::sample([](Seconds) { return 5.0; }, 0.0, 1.0, 101);
  EXPECT_TRUE(find_outages(wave, 1.0).empty());
  EXPECT_DOUBLE_EQ(outage_stats(wave, 1.0).availability, 1.0);
}

TEST(Outages, DominantFrequencyOfSine) {
  const auto wave = Waveform::sample(
      [](Seconds t) { return std::sin(2 * M_PI * 7.0 * t); }, 0.0, 2.0, 20001);
  EXPECT_NEAR(dominant_frequency(wave), 7.0, 0.1);
}

// ------------------------------------------------------------- Sources -----

TEST(SineSource, AmplitudeAndOffset) {
  SineVoltageSource source(2.0, 1.0, 0.5);
  EXPECT_NEAR(source.open_circuit_voltage(0.25), 2.5, 1e-9);
  EXPECT_NEAR(source.open_circuit_voltage(0.75), -1.5, 1e-9);
}

TEST(SquareSource, DutyCycle) {
  SquareVoltageSource source(3.3, 10.0, 0.3);
  EXPECT_DOUBLE_EQ(source.open_circuit_voltage(0.01), 3.3);
  EXPECT_DOUBLE_EQ(source.open_circuit_voltage(0.05), 0.0);
}

TEST(WindTurbine, SingleGustShape) {
  // Fig 1a: AC voltage peaking near +/-5 V with a few-Hz electrical
  // frequency, rising then decaying over several seconds.
  const auto turbine = WindTurbineSource::single_gust();
  const auto wave = Waveform::sample(
      [&](Seconds t) { return turbine.open_circuit_voltage(t); }, 0.0, 8.0, 16001);
  EXPECT_GT(wave.max(), 4.0);
  EXPECT_LT(wave.max(), 6.0);
  EXPECT_LT(wave.min(), -4.0);
  // The envelope peaks somewhere in the first half and decays after.
  const auto turbine_env = [&](Seconds t) { return turbine.envelope(t); };
  double peak_t = 0.0, peak_v = 0.0;
  for (Seconds t = 0.0; t < 8.0; t += 0.01) {
    if (turbine_env(t) > peak_v) {
      peak_v = turbine_env(t);
      peak_t = t;
    }
  }
  EXPECT_GT(peak_t, 0.5);
  EXPECT_LT(peak_t, 4.0);
  EXPECT_LT(turbine_env(8.0), 0.3 * peak_v);
}

TEST(WindTurbine, FrequencyTracksEnvelope) {
  // Electrical frequency at the gust peak should approach peak_frequency.
  const auto turbine = WindTurbineSource::single_gust();
  // Count zero crossings in a window around the envelope peak.
  const auto wave = Waveform::sample(
      [&](Seconds t) { return turbine.open_circuit_voltage(t); }, 1.5, 3.0, 6001);
  const Hertz f = dominant_frequency(wave);
  EXPECT_GT(f, 3.0);
  EXPECT_LT(f, 7.5);
}

TEST(WindTurbine, StochasticGustsDeterministic) {
  const WindTurbineSource::Params params;
  WindTurbineSource a(params, 99, 30.0), b(params, 99, 30.0);
  for (Seconds t = 0.0; t < 30.0; t += 0.37) {
    EXPECT_DOUBLE_EQ(a.open_circuit_voltage(t), b.open_circuit_voltage(t));
  }
}

TEST(WindTurbine, SeededOutputBitsArePinned) {
  // The seeded Fig 8 turbine (gusts start at 0 and near 4.8, 11.6 and 24 s)
  // bit for bit: t = 0, gust rises, peaks, decays, a below-cut-in stall
  // (22-24 s), the tail past the 30 s horizon and the dead zone after it.
  // Any change to the order of the envelope arithmetic moves some of these
  // bits.
  const WindTurbineSource turbine(WindTurbineSource::Params{}, 3, 30.0);
  struct Pin {
    Seconds t;
    std::uint64_t envelope;
    std::uint64_t voltage;
  };
  const Pin pins[] = {
      {0.0, 0x0000000000000000, 0x0000000000000000},
      {0.05, 0x3fe9e323b8b6dd08, 0x3fbe9c26758b7d9a},
      {0.3, 0x400f4f68b806ede0, 0xc00f212e6186d677},
      {1.3, 0x401db7c842d96cb7, 0xbff665bf979095ee},
      {3.7, 0x400ccc2f86881c0e, 0xc0084efa73c04877},
      {4.9, 0x40068e7aa0e6c5df, 0xbfe90ec5c14a9f33},
      {5.7, 0x400f92d370cb8969, 0x3ffa44bc6686ab90},
      {11.7, 0x3fffe1861187ceb8, 0xbfd21c0f2ccab174},
      {12.8, 0x4018ad5add2db6ba, 0x4011df5328646fb8},
      {17.3, 0x3ff371697d4de442, 0xbff08ceff6478b33},
      {21.5, 0x3fc73d2a2fbc8a8a, 0xbfb770769e0354a9},
      {23.0, 0x0000000000000000, 0x0000000000000000},
      {24.3, 0x400179adcb254448, 0xbfe572d7105b8a9a},
      {25.4, 0x40166a86842bd33a, 0x4010970f683a1f58},
      {31.0, 0x3fe52799f65bec18, 0x3fc8e08e34f1c7e5},
      {34.0, 0x3fc5b3e2337e824e, 0x3fa98585ba5d202b},
      {50.0, 0x0000000000000000, 0x0000000000000000},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.t);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(turbine.envelope(pin.t)), pin.envelope);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(turbine.open_circuit_voltage(pin.t)),
              pin.voltage);
  }
}

TEST(WindTurbine, RejectsNonPositiveGustTimes) {
  // A zero or negative gust time constant makes the envelope normaliser
  // NaN, and a non-positive gust period never advances the gust schedule;
  // both arrive from spec documents, so they fail as bad input.
  WindTurbineSource::Params rise;
  rise.gust_rise = 0.0;
  EXPECT_THROW(WindTurbineSource(rise, 3, 30.0), std::invalid_argument);
  WindTurbineSource::Params fall;
  fall.gust_fall = -2.2;
  EXPECT_THROW(WindTurbineSource::single_gust(fall), std::invalid_argument);
  WindTurbineSource::Params period;
  period.gust_period = 0.0;
  EXPECT_THROW(WindTurbineSource(period, 3, 30.0), std::invalid_argument);
}

TEST(IndoorPv, DiurnalRange) {
  // Fig 1b: ~290 uA at night, ~420-430 uA during the day, over two days.
  IndoorPhotovoltaicSource pv({}, 1, 2);
  const double night = pv.current_ua(3.5 * 3600);       // 03:30 day 1
  const double midday = pv.current_ua(13.0 * 3600);     // 13:00 day 1
  const double night2 = pv.current_ua(86400 + 2.0 * 3600);
  EXPECT_NEAR(night, 292.0, 15.0);
  EXPECT_GT(midday, 380.0);
  EXPECT_LT(midday, 460.0);
  EXPECT_NEAR(night2, 292.0, 15.0);
}

TEST(IndoorPv, PowerMatchesCurrent) {
  IndoorPhotovoltaicSource pv({}, 1, 1);
  const Seconds t = 12 * 3600;
  EXPECT_NEAR(pv.available_power(t), pv.current_ua(t) * 1e-6 * 3.0, 1e-9);
}

TEST(OutdoorSolar, ZeroAtNightPeakAtNoon) {
  OutdoorSolarSource solar({}, 5, 3);
  EXPECT_DOUBLE_EQ(solar.available_power(2.0 * 3600), 0.0);      // 02:00
  EXPECT_DOUBLE_EQ(solar.available_power(22.0 * 3600), 0.0);     // 22:00
  EXPECT_GT(solar.available_power(13.0 * 3600), 0.0);            // 13:00
  // Noon clear-sky output beats morning.
  EXPECT_GT(solar.clear_sky_power(13.0 * 3600), solar.clear_sky_power(7.0 * 3600));
}

TEST(OutdoorSolar, CloudsOnlyAttenuate) {
  OutdoorSolarSource solar({}, 5, 2);
  for (Seconds t = 0.0; t < 2 * 86400.0; t += 1800.0) {
    EXPECT_LE(solar.available_power(t), solar.clear_sky_power(t) + 1e-12);
    EXPECT_GE(solar.available_power(t), 0.0);
  }
}

TEST(OutdoorSolar, DeterministicPerSeed) {
  OutdoorSolarSource a({}, 9, 2), b({}, 9, 2);
  for (Seconds t = 0.0; t < 2 * 86400.0; t += 3600.0) {
    EXPECT_DOUBLE_EQ(a.available_power(t), b.available_power(t));
  }
}

TEST(OutdoorSolar, DailyEnergyIsReasonable) {
  // A 50 mW-peak panel over a 14 h day yields roughly peak * daylight * 2/pi
  // (the sine's mean), modulated by weather.
  OutdoorSolarSource::Params params;
  params.cloud_depth = 0.0;
  params.day_to_day_jitter = 0.0;
  OutdoorSolarSource solar(params, 1, 1);
  const auto wave = Waveform::sample(
      [&](Seconds t) { return solar.available_power(t); }, 0.0, 86400.0, 8641);
  const Joules daily = wave.integral();
  const Joules expected = 50e-3 * (14.0 * 3600.0) * 2.0 / 3.14159265358979;
  EXPECT_NEAR(daily, expected, 0.05 * expected);
}

TEST(RfField, BurstTiming) {
  RfFieldSource::Params params;
  params.burst_length = 1.0;
  params.burst_period = 4.0;
  RfFieldSource rf(params, 5, 20.0);
  EXPECT_GT(rf.available_power(0.5), 0.0);
  EXPECT_DOUBLE_EQ(rf.available_power(2.0), 0.0);
  EXPECT_GT(rf.available_power(4.5), 0.0);
}

TEST(MarkovOnOff, AvailabilityMatchesDutyRatio) {
  // mean_on 0.2 s / mean_off 0.2 s => ~50% availability.
  MarkovOnOffPowerSource source(1e-3, 0.2, 0.2, 17, 2000.0);
  double on_time = 0.0;
  const Seconds dt = 0.01;
  for (Seconds t = 0.0; t < 2000.0; t += dt) {
    if (source.available_power(t) > 0.0) on_time += dt;
  }
  EXPECT_NEAR(on_time / 2000.0, 0.5, 0.05);
}

TEST(KineticSource, RingsAfterImpulse) {
  KineticHarvesterSource::Params params;
  KineticHarvesterSource source(params, 3, 10.0);
  // Shortly after the first impulse (t=0.05) there is substantial output.
  double peak = 0.0;
  for (Seconds t = 0.05; t < 0.2; t += 0.0005) {
    peak = std::max(peak, std::abs(source.open_circuit_voltage(t)));
  }
  EXPECT_GT(peak, 1.0);
}

// ----------------------------------------------------------------- CSV -----

TEST(Csv, RoundTrip) {
  const auto wave = Waveform::sample([](Seconds t) { return 3.0 * t + 1.0; }, 0.0,
                                     1.0, 101);
  std::stringstream buffer;
  write_csv(buffer, "v", wave);
  const auto back = read_csv(buffer);
  ASSERT_EQ(back.size(), wave.size());
  EXPECT_NEAR(back.at(0.42), wave.at(0.42), 1e-9);
}

TEST(Csv, MultiColumn) {
  TraceSet set;
  set.add("a", Waveform::sample([](Seconds t) { return t; }, 0.0, 1.0, 11));
  set.add("b", Waveform::sample([](Seconds t) { return 2 * t; }, 0.0, 1.0, 11));
  std::stringstream buffer;
  write_csv(buffer, set);
  std::string header;
  std::getline(buffer, header);
  EXPECT_EQ(header, "time,a,b");
}

TEST(Csv, RejectsNonUniform) {
  std::stringstream buffer("time,v\n0,1\n1,2\n3,4\n");
  EXPECT_THROW(read_csv(buffer), std::invalid_argument);
}

TEST(Csv, LongTraceRoundTripsBitExactly) {
  // 400,001 samples over 20 s: printed with too few digits, neighbouring
  // timestamps collide and the reader rejects the file as non-uniform.
  const auto wave = Waveform::sample([](Seconds t) { return std::sin(7.0 * t); }, 0.0,
                                     20.0, 400001);
  std::stringstream buffer;
  write_csv(buffer, "v", wave);
  const auto back = read_csv(buffer);
  EXPECT_EQ(back.t0(), wave.t0());
  EXPECT_EQ(back.dt(), wave.dt());
  EXPECT_EQ(back.samples(), wave.samples());
}

TEST(Csv, RoundTripKeepsFullPrecision) {
  const Waveform wave(0.0, 0.5, {0.1234567891, -2.5e-17, 1.0 / 3.0});
  std::stringstream buffer;
  write_csv(buffer, "v", wave);
  EXPECT_EQ(read_csv(buffer).samples(), wave.samples());
}

/// read_csv's error message for `text`, or "" when it parses.
std::string csv_error(const std::string& text) {
  std::stringstream buffer(text);
  try {
    (void)read_csv(buffer);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Csv, RejectsTruncatedLastRowNamingIt) {
  const std::string error = csv_error("time,v\n0,1\n1,2\n2,3\n3\n");
  EXPECT_NE(error.find("row 5"), std::string::npos) << error;
}

TEST(Csv, RejectsPartlyNumericValues) {
  const std::string error = csv_error("0,1\n1,2\n2,3x\n");
  EXPECT_NE(error.find("row 3"), std::string::npos) << error;
  EXPECT_NE(csv_error("0,1\n1,\n2,3\n"), "");
}

TEST(Csv, AcceptsSurroundingWhitespaceAndCrlf) {
  std::stringstream buffer("time,v\r\n0,1\r\n1, 2 \r\n2,3\t\r\n");
  const auto wave = read_csv(buffer);
  EXPECT_EQ(wave.samples(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(wave.dt(), 1.0);
}

TEST(TraceSet, FindByName) {
  TraceSet set;
  set.add("vcc", Waveform::sample([](Seconds) { return 1.0; }, 0.0, 1.0, 2));
  EXPECT_NE(set.find("vcc"), nullptr);
  EXPECT_EQ(set.find("nope"), nullptr);
}

}  // namespace
}  // namespace edc::trace

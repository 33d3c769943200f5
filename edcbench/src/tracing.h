// Layer attribution for the traced run.
//
// Two granularities, one clock (steady_clock, nanoseconds since the
// tracer's origin):
//
//  * Spans: one record per call the benchmark makes into a layer
//    (spec::serialize, Cache::load, spec::instantiate, System::run,
//    BatchKernel::run, serialize_result, Cache::store, ...), each with a
//    name, family, start, end, parent span and run id. A traced job makes
//    a few thousand of them; they stay in memory and are written at exit.
//  * Calls: the simulator's calls into the source, driver, program and
//    governor, made through forwarding decorators (Traced* below). A fine
//    run makes millions of them, so instead of one record each they are
//    aggregated (count and self time) into the innermost open span.
//
// A span's self time is its duration minus its child spans and its
// top-level decorated calls; a call's self time is its duration minus the
// calls nested inside it (a driver sampling its source). Every nanosecond
// of the root span therefore belongs to exactly one self time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "edc/core/system.h"
#include "edc/spec/system_spec.h"

namespace edcbench {

/// The decorated layers whose calls are aggregated.
enum class Layer : std::uint8_t {
  trace_sample,    ///< VoltageSource::open_circuit_voltage, PowerSource::available_power
  trace_hint,      ///< bounded_until, constant_until, linear_until, dormant_until
  circuit_driver,  ///< current_into, quiescent_until, plan_*_span, batch_sample
  workload_tick,   ///< Program::run_tick
  workload_snapshot,  ///< Program::save_state / restore_state
  governor,        ///< FrequencyGovernor::control
};
inline constexpr std::size_t kLayerCount = 6;

/// Short name of a layer ("trace_sample", ...).
[[nodiscard]] const char* layer_name(Layer layer);

struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t useful = 0;  ///< hints that returned a horizon past t
  std::int64_t self_ns = 0;
};

struct Span {
  std::string name;
  std::string family;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t covered_ns = 0;  ///< child spans + top-level calls
  std::int32_t parent = -1;
  std::uint32_t run_id = 0;
  std::array<CallStats, kLayerCount> calls{};

  [[nodiscard]] std::int64_t self_ns() const { return end_ns - start_ns - covered_ns; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span as a child of the innermost open span.
  std::size_t begin(std::string name, std::string family = {});
  void end(std::size_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string family = {})
        : tracer_(tracer), id_(tracer.begin(std::move(name), std::move(family))) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t id_;
  };

  /// Tags the spans opened from now on (1 cold leg, 2 cache fill, 3 warm leg).
  void set_run(std::uint32_t run_id) { run_ = run_id; }

  /// Decorated-call bracket; calls nest (driver -> source).
  void call_begin(Layer layer) {
    frames_.push_back(Frame{layer, now_ns(), 0});
  }
  void call_end(bool useful = false);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<Frame> frames_;
  std::uint32_t run_ = 0;
};

/// spec::instantiate with every layer the simulator calls into wrapped in
/// a forwarding decorator that reports to `tracer`, wired through
/// core::EnergyDrivenSystem::Parts exactly as spec::instantiate wires the
/// undecorated parts. Building the source is its own "trace.build" span.
[[nodiscard]] edc::core::EnergyDrivenSystem instantiate_traced(
    const edc::spec::SystemSpec& spec, Tracer& tracer);

}  // namespace edcbench

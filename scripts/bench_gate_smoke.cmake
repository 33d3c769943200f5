# bench_gate end-to-end smoke (ctest `bench_gate_smoke`): drive the real CLI
# against the committed google-benchmark fixture and check all three verdict
# classes — gates that hold (exit 0), a gate the recorded ratio misses
# (exit 1), and a gate naming a pair the file does not carry (exit 1).
#
# The step-mix ceilings (--steps-gate) read the fixture's Fig8WindSurvey
# macro counters (141371 fine steps, 27697 spans): ceilings at the counts
# pass, a count one above its ceiling fails (fine steps and spans each),
# an entry without counters (BrownoutTail, recorded as before perf_micro
# emitted them) fails, and a signed ceiling is a usage error (exit 2).
#
# Invoked as:
#   cmake -DGATE=<bench_gate> -DFIXTURE=<bench_gate_sample.json> -P this_file

if(NOT GATE OR NOT FIXTURE)
  message(FATAL_ERROR "usage: cmake -DGATE=... -DFIXTURE=... -P bench_gate_smoke.cmake")
endif()

# 1. All recorded pairs clear their gates (60x and ~4.3x macro, 4x batch in
# the fixture) — macro and batch gates mixed in one invocation.
execute_process(
  COMMAND ${GATE} ${FIXTURE} --gate BrownoutTail=8 --gate Fig8WindSurvey=3
          --batch-gate Fig7Survey=2
  RESULT_VARIABLE pass_result OUTPUT_VARIABLE pass_out)
if(NOT pass_result EQUAL 0)
  message(FATAL_ERROR "expected gates to pass, got exit ${pass_result}:\n${pass_out}")
endif()
if(NOT pass_out MATCHES "\\[PASS\\] BrownoutTail")
  message(FATAL_ERROR "missing PASS verdict for BrownoutTail:\n${pass_out}")
endif()
if(NOT pass_out MATCHES "\\[PASS\\] Fig7Survey")
  message(FATAL_ERROR "missing PASS verdict for Fig7Survey:\n${pass_out}")
endif()

# 2. An unreachable threshold must fail loudly.
execute_process(
  COMMAND ${GATE} ${FIXTURE} --gate Fig8WindSurvey=100
  RESULT_VARIABLE fail_result OUTPUT_VARIABLE fail_out)
if(fail_result EQUAL 0)
  message(FATAL_ERROR "expected the 100x gate to fail:\n${fail_out}")
endif()
if(NOT fail_out MATCHES "\\[FAIL\\] Fig8WindSurvey")
  message(FATAL_ERROR "missing FAIL verdict for Fig8WindSurvey:\n${fail_out}")
endif()

# 3. A pair the file does not record must fail, not silently pass.
execute_process(
  COMMAND ${GATE} ${FIXTURE} --gate NoSuchPair=2
  RESULT_VARIABLE missing_result OUTPUT_VARIABLE missing_out)
if(missing_result EQUAL 0)
  message(FATAL_ERROR "expected the missing pair to fail:\n${missing_out}")
endif()

# 4. Batch gates have the same fail/missing behaviour: an unreachable
# threshold (the fixture records 4x) and a pair with no BM_BatchPair
# entries (BrownoutTail is a BM_MacroPair — --batch-gate must not pair up
# with the macro entries).
execute_process(
  COMMAND ${GATE} ${FIXTURE} --batch-gate Fig7Survey=100
  RESULT_VARIABLE batch_fail_result OUTPUT_VARIABLE batch_fail_out)
if(batch_fail_result EQUAL 0)
  message(FATAL_ERROR "expected the 100x batch gate to fail:\n${batch_fail_out}")
endif()
if(NOT batch_fail_out MATCHES "\\[FAIL\\] Fig7Survey")
  message(FATAL_ERROR "missing FAIL verdict for Fig7Survey:\n${batch_fail_out}")
endif()
execute_process(
  COMMAND ${GATE} ${FIXTURE} --batch-gate BrownoutTail=2
  RESULT_VARIABLE batch_missing_result OUTPUT_VARIABLE batch_missing_out)
if(batch_missing_result EQUAL 0)
  message(FATAL_ERROR
          "expected --batch-gate on a macro-only pair to fail:\n${batch_missing_out}")
endif()

# 5. Step-mix ceilings: exact counts, so the gate holds at the recorded
# counts and fails one step (or one span) past them.
execute_process(
  COMMAND ${GATE} ${FIXTURE} --steps-gate Fig8WindSurvey=141371,27697
  RESULT_VARIABLE steps_pass_result OUTPUT_VARIABLE steps_pass_out)
if(NOT steps_pass_result EQUAL 0 OR NOT steps_pass_out MATCHES "\\[PASS\\] Fig8WindSurvey")
  message(FATAL_ERROR "expected the step ceilings at the recorded counts to pass, got exit ${steps_pass_result}:\n${steps_pass_out}")
endif()
foreach(ceilings "141370,27697" "141371,27696")
  execute_process(
    COMMAND ${GATE} ${FIXTURE} --steps-gate Fig8WindSurvey=${ceilings}
    RESULT_VARIABLE steps_fail_result OUTPUT_VARIABLE steps_fail_out)
  if(NOT steps_fail_result EQUAL 1 OR NOT steps_fail_out MATCHES "\\[FAIL\\] Fig8WindSurvey")
    message(FATAL_ERROR "expected --steps-gate Fig8WindSurvey=${ceilings} to fail, got exit ${steps_fail_result}:\n${steps_fail_out}")
  endif()
endforeach()

# 6. An entry without step-mix counters fails, not silently passes.
execute_process(
  COMMAND ${GATE} ${FIXTURE} --steps-gate BrownoutTail=2062,16
  RESULT_VARIABLE steps_missing_result OUTPUT_VARIABLE steps_missing_out)
if(NOT steps_missing_result EQUAL 1 OR NOT steps_missing_out MATCHES "missing fine_steps counter")
  message(FATAL_ERROR "expected --steps-gate on an entry without counters to fail, got exit ${steps_missing_result}:\n${steps_missing_out}")
endif()

# 7. A signed ceiling is a usage error (exit 2), never a wrapped count.
execute_process(
  COMMAND ${GATE} ${FIXTURE} --steps-gate Fig8WindSurvey=-1,27697
  RESULT_VARIABLE steps_negative_result OUTPUT_VARIABLE steps_negative_out
  ERROR_VARIABLE steps_negative_err)
if(NOT steps_negative_result EQUAL 2)
  message(FATAL_ERROR "expected --steps-gate Fig8WindSurvey=-1,27697 to exit 2, got ${steps_negative_result}:\n${steps_negative_out}${steps_negative_err}")
endif()

message(STATUS "bench_gate smoke: pass/fail/missing verdicts all correct")

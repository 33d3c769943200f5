# Solver-guided design queries end to end (ctest `search_smoke`): drive
# eq5_crossover --solve-check and design_query --demo through the real
# CLIs, cold and warm against one cache, and assert the probe accounting
# with bench_gate --points-gate:
#
#   * cold --solve-check passes its own dense cross-check (the refined
#     bracket lies inside the dense crossover cell) while simulating at
#     most 25% of the dense-equivalent grid (24 of 98 points);
#   * the warm rerun of the same query simulates ZERO points;
#   * design_query --demo brackets the minimum wind-surviving capacitance
#     cold, and its warm rerun also simulates zero points;
#   * the spec document design_query --print-spec writes reads back through
#     --spec to the same bytes.
#
# Invoked as:
#   cmake -DEQ5=<eq5_crossover> -DDQ=<design_query> -DGATE=<bench_gate>
#         -DWORK=<scratch dir> -P search_smoke.cmake

if(NOT EQ5 OR NOT DQ OR NOT GATE OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DEQ5=... -DDQ=... -DGATE=... -DWORK=... -P search_smoke.cmake")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(CSV ${WORK}/search.csv)

# 1. Cold solver-guided Eq 5 crossover with the built-in dense cross-check
# (the solver runs before the dense sweep, so its cold-probe counts are
# unaffected by the sweep warming the shared cache).
execute_process(
  COMMAND ${EQ5} --solve-check --t-end 2 --cache ${WORK}/cache
          --search-csv ${CSV}
  RESULT_VARIABLE cold_result OUTPUT_VARIABLE cold_out ERROR_VARIABLE cold_err)
if(NOT cold_result EQUAL 0)
  message(FATAL_ERROR "cold --solve-check failed (${cold_result}):\n${cold_out}\n${cold_err}")
endif()
if(NOT cold_out MATCHES "SOLVE CHECK PASSED")
  message(FATAL_ERROR "cold --solve-check did not pass its dense cross-check:\n${cold_out}")
endif()

# 2. Warm rerun of the same query against the same cache.
execute_process(
  COMMAND ${EQ5} --solve --t-end 2 --cache ${WORK}/cache
          --search-csv ${CSV} --search-name Eq5SolveWarm
  RESULT_VARIABLE warm_result OUTPUT_VARIABLE warm_out ERROR_VARIABLE warm_err)
if(NOT warm_result EQUAL 0)
  message(FATAL_ERROR "warm --solve failed (${warm_result}):\n${warm_out}\n${warm_err}")
endif()

# 3. design_query --demo: minimum wind-surviving capacitance, cold + warm.
execute_process(
  COMMAND ${DQ} --demo --cache ${WORK}/demo_cache --search-csv ${CSV}
  RESULT_VARIABLE demo_result OUTPUT_VARIABLE demo_out ERROR_VARIABLE demo_err)
if(NOT demo_result EQUAL 0)
  message(FATAL_ERROR "design_query --demo failed (${demo_result}):\n${demo_out}\n${demo_err}")
endif()
if(NOT demo_out MATCHES "threshold bracket")
  message(FATAL_ERROR "design_query --demo reported no bracket:\n${demo_out}")
endif()
execute_process(
  COMMAND ${DQ} --demo --cache ${WORK}/demo_cache --search-csv ${CSV}
          --search-name DesignQueryWarm
  RESULT_VARIABLE demo_warm_result OUTPUT_VARIABLE demo_warm_out
  ERROR_VARIABLE demo_warm_err)
if(NOT demo_warm_result EQUAL 0)
  message(FATAL_ERROR "warm design_query --demo failed (${demo_warm_result}):\n${demo_warm_out}\n${demo_warm_err}")
endif()

# 4. Gate the recorded probe counts: the cold Eq 5 solve within 25% of the
# dense-equivalent 98-point grid, both warm reruns at zero simulations.
execute_process(
  COMMAND ${GATE} --points-csv ${CSV}
          --points-gate Eq5Solve=24 --points-gate Eq5SolveWarm=0
          --points-gate DesignQuery=30 --points-gate DesignQueryWarm=0
  RESULT_VARIABLE gate_result OUTPUT_VARIABLE gate_out)
if(NOT gate_result EQUAL 0)
  message(FATAL_ERROR "probe-budget gates failed:\n${gate_out}")
endif()

# 5. The printed spec document reads back through --spec unchanged.
execute_process(
  COMMAND ${DQ} --demo --print-spec
  OUTPUT_FILE ${WORK}/demo.spec RESULT_VARIABLE print_result)
execute_process(
  COMMAND ${DQ} --spec ${WORK}/demo.spec --print-spec
  OUTPUT_FILE ${WORK}/demo_again.spec RESULT_VARIABLE reprint_result)
file(READ ${WORK}/demo.spec demo_spec)
file(READ ${WORK}/demo_again.spec demo_spec_again)
if(NOT print_result EQUAL 0 OR NOT reprint_result EQUAL 0 OR
   NOT demo_spec STREQUAL demo_spec_again)
  message(FATAL_ERROR "design_query --print-spec does not read back through --spec")
endif()

message(STATUS "search smoke: solver bracket verified, warm reruns simulate zero points\n${gate_out}")

# Solver-guided design queries end to end (ctest `search_smoke`): drive
# design_query --demo through the real CLI, cold and warm against one
# cache, and hold its probe budgets through the summary line it prints
# ("simulated N of M dense-equivalent points, K replayed warm"):
#
#   * design_query --demo brackets the minimum wind-surviving capacitance
#     cold in 1 to 30 simulated points, and its warm rerun simulates zero
#     and replays the cold points;
#   * the spec document design_query --print-spec writes reads back through
#     --spec to the same bytes;
#   * numeric input design_query cannot represent (a count past its range
#     or not a whole number, a non-finite bound, a tolerance whose
#     dense-equivalent count overflows) exits 2 before any probe runs.
#
# The Eq 5 crossover search (cell equivalence with the dense sweep, at most
# 24 of 98 points cold, zero warm) is pinned in tests/search_test.cpp.
#
# Invoked as:
#   cmake -DDQ=<design_query> -DWORK=<scratch dir> -P search_smoke.cmake

if(NOT DQ OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DDQ=... -DWORK=... -P search_smoke.cmake")
endif()

# The cold query's budget of simulated points.
set(COLD_BUDGET 30)

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# 1. Cold: the minimum wind-surviving capacitance within the budget.
execute_process(
  COMMAND ${DQ} --demo --cache ${WORK}/demo_cache
  RESULT_VARIABLE demo_result OUTPUT_VARIABLE demo_out ERROR_VARIABLE demo_err)
if(NOT demo_result EQUAL 0)
  message(FATAL_ERROR "design_query --demo failed (${demo_result}):\n${demo_out}\n${demo_err}")
endif()
if(NOT demo_out MATCHES "threshold bracket")
  message(FATAL_ERROR "design_query --demo reported no bracket:\n${demo_out}")
endif()
if(NOT demo_out MATCHES "simulated ([0-9]+) of ([0-9]+) dense-equivalent points, 0 replayed warm")
  message(FATAL_ERROR "design_query --demo printed no cold summary line:\n${demo_out}")
endif()
set(cold_points ${CMAKE_MATCH_1})
set(dense_points ${CMAKE_MATCH_2})
if(cold_points LESS 1 OR cold_points GREATER COLD_BUDGET)
  message(FATAL_ERROR "design_query --demo simulated ${cold_points} points cold, expected 1 to ${COLD_BUDGET}:\n${demo_out}")
endif()

# 2. Warm rerun: zero simulations, the cold points replayed from the cache.
execute_process(
  COMMAND ${DQ} --demo --cache ${WORK}/demo_cache
  RESULT_VARIABLE demo_warm_result OUTPUT_VARIABLE demo_warm_out
  ERROR_VARIABLE demo_warm_err)
if(NOT demo_warm_result EQUAL 0)
  message(FATAL_ERROR "warm design_query --demo failed (${demo_warm_result}):\n${demo_warm_out}\n${demo_warm_err}")
endif()
if(NOT demo_warm_out MATCHES "simulated 0 of ${dense_points} dense-equivalent points, ${cold_points} replayed warm")
  message(FATAL_ERROR "warm design_query --demo did not replay the ${cold_points} cold points:\n${demo_warm_out}")
endif()

# 3. The printed spec document reads back through --spec unchanged.
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

# 4. Unrepresentable numeric input is a usage error (exit 2) that runs no
# probe, so nothing reaches stdout.
foreach(bad "--lattice;1e30" "--max-probes;nan" "--log-lattice;inf"
            "--tol;1e-300" "--hi;inf")
  execute_process(
    COMMAND ${DQ} --demo ${bad}
    RESULT_VARIABLE bad_result OUTPUT_VARIABLE bad_out ERROR_VARIABLE bad_err)
  if(NOT bad_result EQUAL 2 OR NOT bad_out STREQUAL "")
    string(REPLACE ";" " " bad_args "${bad}")
    message(FATAL_ERROR "design_query --demo ${bad_args} exited ${bad_result}, expected 2 with no probes:\n${bad_out}${bad_err}")
  endif()
endforeach()

message(STATUS "search smoke: ${cold_points} of ${dense_points} points cold, 0 warm; bad input exits 2")

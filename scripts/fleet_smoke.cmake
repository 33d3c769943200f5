# Fleet scenarios end to end (ctest `fleet_smoke`): drive
# design_query --fleet-demo, which brackets the smallest capacitance at
# which every node of the canonical 3-node shared-RF example fleet
# (spec::example_rf_fleet) completes, cold and warm against one cache:
#
#   * the cold run simulates N > 0 of the 51 dense-equivalent points and
#     replays none;
#   * the warm rerun simulates zero points and replays the same N;
#   * both runs print a threshold bracket;
#   * each flag the fleet query has no use for (--axis, --objective,
#     --target, --tol, --lattice, --print-spec) exits 2 with nothing on
#     stdout, before any probe runs.
#
# The library-level fleet contracts (cold 3 / warm 0 / byte-identical rows,
# every node completing, N=1 bit-identity) live in tests/fleet_test.cpp.
#
# Invoked as:
#   cmake -DDQ=<design_query> -DWORK=<scratch dir> -P fleet_smoke.cmake

if(NOT DQ OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DDQ=... -DWORK=... -P fleet_smoke.cmake")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# 1. Cold: every probe simulated fresh.
execute_process(
  COMMAND ${DQ} --fleet-demo --cache ${WORK}/cache
  RESULT_VARIABLE cold_result OUTPUT_VARIABLE cold_out ERROR_VARIABLE cold_err)
if(NOT cold_result EQUAL 0)
  message(FATAL_ERROR "cold design_query --fleet-demo failed (${cold_result}):\n${cold_out}\n${cold_err}")
endif()
if(NOT cold_out MATCHES "threshold bracket")
  message(FATAL_ERROR "cold design_query --fleet-demo reported no bracket:\n${cold_out}")
endif()
if(NOT cold_out MATCHES "simulated ([1-9][0-9]*) of 51 dense-equivalent points, 0 replayed warm")
  message(FATAL_ERROR "cold design_query --fleet-demo did not simulate its probes fresh:\n${cold_out}")
endif()
set(cold_points ${CMAKE_MATCH_1})

# 2. Warm rerun: zero simulations, the same points replayed from the cache.
execute_process(
  COMMAND ${DQ} --fleet-demo --cache ${WORK}/cache
  RESULT_VARIABLE warm_result OUTPUT_VARIABLE warm_out ERROR_VARIABLE warm_err)
if(NOT warm_result EQUAL 0)
  message(FATAL_ERROR "warm design_query --fleet-demo failed (${warm_result}):\n${warm_out}\n${warm_err}")
endif()
if(NOT warm_out MATCHES "threshold bracket")
  message(FATAL_ERROR "warm design_query --fleet-demo lost its bracket:\n${warm_out}")
endif()
if(NOT warm_out MATCHES "simulated 0 of 51 dense-equivalent points, ${cold_points} replayed warm")
  message(FATAL_ERROR "warm design_query --fleet-demo did not replay the ${cold_points} cold points:\n${warm_out}")
endif()

# 3. Flags the fixed fleet question has no use for are usage errors, not
# no-ops.
foreach(rejected "--axis;bleed" "--objective;completed" "--target;5"
                 "--tol;1e-9" "--lattice;5" "--print-spec")
  execute_process(
    COMMAND ${DQ} --fleet-demo ${rejected}
    RESULT_VARIABLE rejected_result OUTPUT_VARIABLE rejected_out
    ERROR_VARIABLE rejected_err)
  list(GET rejected 0 rejected_flag)
  if(NOT rejected_result EQUAL 2 OR NOT rejected_out STREQUAL "")
    message(FATAL_ERROR "design_query --fleet-demo ${rejected_flag} should exit 2 with empty stdout, got ${rejected_result}:\n${rejected_out}\n${rejected_err}")
  endif()
  if(NOT rejected_err MATCHES "does not take ${rejected_flag}")
    message(FATAL_ERROR "design_query --fleet-demo ${rejected_flag} did not name the flag:\n${rejected_err}")
  endif()
endforeach()

message(STATUS "fleet smoke: shared-RF fleet query simulated ${cold_points} points cold, 0 warm")

# End-to-end sweep-cache smoke test (registered in ctest as cache_smoke):
# runs the tab_policy_comparison bench twice against a fresh cache
# directory and requires that the warm rerun (a) simulates 0 points and
# (b) prints a bit-identical table (the bench writes cache statistics to
# stderr precisely so stdout stays byte-comparable). Then corrupts one
# entry and drives the self-healing CLI loop: fsck flags it (exit 1),
# fsck --quarantine moves it aside to <entry>.bad, and a re-check comes
# back clean (exit 0). Then prune --max-bytes -1 must be a usage error
# (exit 2), not a budget wrapped to 2^64 - 1. Last, the bench's --trace-dir
# must exit 2 with nothing on stdout for a missing directory, a directory
# with no *.csv, and a CSV with one data row.
#
#   cmake -DBENCH=<tab_policy_comparison> -DSWEEP_CACHE=<sweep_cache>
#         -DWORK=<dir> -P this
foreach(var BENCH SWEEP_CACHE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

execute_process(
  COMMAND "${BENCH}" --cache "${WORK}/cache"
  OUTPUT_FILE "${WORK}/cold.out" ERROR_FILE "${WORK}/cold.err"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cold bench run failed (${rc})")
endif()

execute_process(
  COMMAND "${BENCH}" --cache "${WORK}/cache"
  OUTPUT_FILE "${WORK}/warm.out" ERROR_FILE "${WORK}/warm.err"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm bench run failed (${rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK}/cold.out" "${WORK}/warm.out"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm-cache rerun did not reproduce the table bit-identically")
endif()

file(READ "${WORK}/warm.err" warm_err)
if(NOT warm_err MATCHES "simulated 0 of")
  message(FATAL_ERROR "warm rerun still simulated points: ${warm_err}")
endif()
file(READ "${WORK}/cold.err" cold_err)
if(NOT cold_err MATCHES "0 hits")
  message(FATAL_ERROR "cold run unexpectedly hit a fresh cache: ${cold_err}")
endif()

message(STATUS "warm-cache rerun simulated 0 points with a bit-identical table")

# ---- self-healing CLI loop: corrupt -> fsck -> quarantine -> clean ----------

file(GLOB_RECURSE entries "${WORK}/cache/*.edcres")
list(LENGTH entries entry_count)
if(entry_count EQUAL 0)
  message(FATAL_ERROR "warm cache holds no entries to corrupt")
endif()
list(GET entries 0 victim)
file(WRITE "${victim}" "deliberately rotten bytes")

execute_process(COMMAND "${SWEEP_CACHE}" fsck "${WORK}/cache"
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "fsck missed a deliberately corrupted entry")
endif()

execute_process(COMMAND "${SWEEP_CACHE}" fsck "${WORK}/cache" --quarantine
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "fsck --quarantine reported a clean cache while quarantining")
endif()
if(EXISTS "${victim}")
  message(FATAL_ERROR "fsck --quarantine left the corrupt entry in place")
endif()
if(NOT EXISTS "${victim}.bad")
  message(FATAL_ERROR "fsck --quarantine did not produce ${victim}.bad")
endif()

execute_process(COMMAND "${SWEEP_CACHE}" fsck "${WORK}/cache"
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cache still dirty after fsck --quarantine")
endif()

message(STATUS "fsck --quarantine healed the corrupted entry (moved to .bad)")

execute_process(COMMAND "${SWEEP_CACHE}" prune "${WORK}/cache" --max-bytes -1
  OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "prune --max-bytes -1 exited ${rc}, expected the usage error 2")
endif()

# ---- --trace-dir rejects unusable datasets: exit 2, empty stdout -----------

file(MAKE_DIRECTORY "${WORK}/traces_empty")
file(MAKE_DIRECTORY "${WORK}/traces_one_row")
file(WRITE "${WORK}/traces_one_row/short.csv" "time,volts\n0,3.3\n")
foreach(case missing empty one_row)
  execute_process(COMMAND "${BENCH}" --trace-dir "${WORK}/traces_${case}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--trace-dir (${case}) exited ${rc}, expected 2: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "--trace-dir (${case}) printed on stdout: ${out}")
  endif()
  if(NOT err MATCHES "--trace-dir: ")
    message(FATAL_ERROR "--trace-dir (${case}) gave no reason on stderr: ${err}")
  endif()
endforeach()

message(STATUS "--trace-dir rejected a missing, an empty and a one-row dataset")

# End-to-end sweep-cache smoke test (registered in ctest as cache_smoke):
# runs the tab_policy_comparison bench twice against a fresh cache
# directory and requires that the warm rerun (a) simulates 0 points and
# (b) prints a bit-identical table (the bench writes cache statistics to
# stderr precisely so stdout stays byte-comparable). Then corrupts one
# entry and drives the load-time self-healing loop: the next warm run
# quarantines it to <entry>.bad, re-simulates exactly that point and still
# prints the cold table byte for byte, and the run after it simulates 0
# points again. Last, the bench's --trace-dir must exit 2 with nothing on
# stdout for a missing directory, a directory with no *.csv, and a CSV with
# one data row.
#
#   cmake -DBENCH=<tab_policy_comparison> -DWORK=<dir> -P this
foreach(var BENCH WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs the bench against the cache into <name>.out / <name>.err; every run
# after the cold one must print the cold table byte for byte.
function(run_cached name)
  execute_process(
    COMMAND "${BENCH}" --cache "${WORK}/cache"
    OUTPUT_FILE "${WORK}/${name}.out" ERROR_FILE "${WORK}/${name}.err"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} bench run failed (${rc})")
  endif()
  if(NOT name STREQUAL "cold")
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK}/cold.out" "${WORK}/${name}.out"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${name} rerun did not reproduce the cold table bit-identically")
    endif()
  endif()
endfunction()

# Fails unless the run's stderr reports `simulated <n> of`.
function(expect_simulated name n)
  file(READ "${WORK}/${name}.err" err)
  if(NOT err MATCHES "simulated ${n} of")
    message(FATAL_ERROR "${name} run did not simulate exactly ${n} points: ${err}")
  endif()
endfunction()

run_cached(cold)
file(READ "${WORK}/cold.err" cold_err)
if(NOT cold_err MATCHES "0 hits")
  message(FATAL_ERROR "cold run unexpectedly hit a fresh cache: ${cold_err}")
endif()
run_cached(warm)
expect_simulated(warm 0)

message(STATUS "warm-cache rerun simulated 0 points with a bit-identical table")

# ---- load-time self-healing: corrupt -> quarantine + resimulate -> warm ----

file(GLOB_RECURSE entries "${WORK}/cache/*.edcres")
list(LENGTH entries entry_count)
if(entry_count EQUAL 0)
  message(FATAL_ERROR "warm cache holds no entries to corrupt")
endif()
list(GET entries 0 victim)
file(WRITE "${victim}" "deliberately rotten bytes")

run_cached(heal)
expect_simulated(heal 1)
if(NOT EXISTS "${victim}.bad")
  message(FATAL_ERROR "the corrupt entry was not quarantined to ${victim}.bad")
endif()
if(NOT EXISTS "${victim}")
  message(FATAL_ERROR "the healing run did not store a fresh entry at ${victim}")
endif()

run_cached(healed)
expect_simulated(healed 0)

message(STATUS "a corrupt entry was quarantined, re-simulated and served warm again")

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

# End-to-end shard workflow smoke test (registered in ctest as
# shard_merge_smoke): runs the eq5_crossover bench as two independent
# processes on halves of its grid, merges the per-shard CSVs with
# sweep_merge, and requires the result to be byte-identical to the
# unsharded run's CSV. An incomplete merge and an out-of-range --shard must
# both fail.
#
#   cmake -DEQ5=<eq5_crossover> -DMERGE=<sweep_merge> -DWORK=<dir> -P this
#
# A short --t-end keeps the smoke fast; byte-identity of the *full*
# horizon is covered in-process by tests/sweep_shard_test.cpp.
foreach(var EQ5 MERGE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(T_END 2)

execute_process(
  COMMAND "${EQ5}" --t-end ${T_END} --csv "${WORK}/full.csv"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "unsharded eq5_crossover run failed (${rc})")
endif()

foreach(k RANGE 1)
  execute_process(
    COMMAND "${EQ5}" --t-end ${T_END} --shard ${k}/2 --csv "${WORK}/shard${k}.csv"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "shard ${k}/2 run failed (${rc})")
  endif()
endforeach()

execute_process(
  COMMAND "${MERGE}" "${WORK}/merged.csv" "${WORK}/shard0.csv" "${WORK}/shard1.csv"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep_merge failed (${rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK}/full.csv" "${WORK}/merged.csv"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "merged shard CSV differs from the unsharded run")
endif()

# A merge with a missing shard must fail loudly, not truncate.
execute_process(
  COMMAND "${MERGE}" "${WORK}/bad.csv" "${WORK}/shard0.csv"
  RESULT_VARIABLE rc ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "sweep_merge accepted an incomplete partition")
endif()

# A shard the partition cannot hold is a usage error (exit 2), not a crash.
execute_process(
  COMMAND "${EQ5}" --t-end ${T_END} --shard 2/2 --csv "${WORK}/bad_shard.csv"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--shard 2/2 exited ${rc}, expected the usage error 2")
endif()

message(STATUS "shard -> merge workflow is byte-identical to the unsharded run")

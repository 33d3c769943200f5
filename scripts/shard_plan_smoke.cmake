# End-to-end cost-weighted sharding smoke test (registered in ctest as
# shard_plan_smoke): an unsharded eq5_crossover run emits the per-point
# cost plan, two LPT-balanced shard processes consume it, sweep_merge
# reassembles the v2 shard CSVs, and the result must be byte-identical to
# the unsharded run's CSV — cost-weighted sharding driven through the real
# binaries. A missing plan and a plan mixing scalar ('s') and batch ('b')
# costs must both fail the shard run without writing its CSV.
#
#   cmake -DEQ5=<eq5_crossover> -DMERGE=<sweep_merge> -DWORK=<dir> -P this
#
# The shared cache keeps the shard runs warm (hits replay each point's
# original cost), so the smoke also exercises the plan's cache interplay.
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
          --cache "${WORK}/cache" --shard-plan "${WORK}/plan.csv"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "unsharded plan-emitting run failed (${rc})")
endif()
if(NOT EXISTS "${WORK}/plan.csv")
  message(FATAL_ERROR "--shard-plan did not emit ${WORK}/plan.csv")
endif()

foreach(k RANGE 1)
  execute_process(
    COMMAND "${EQ5}" --t-end ${T_END} --shard ${k}/2 --csv "${WORK}/shard${k}.csv"
            --cache "${WORK}/cache" --shard-plan "${WORK}/plan.csv"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "LPT shard ${k}/2 run failed (${rc})")
  endif()
endforeach()

execute_process(
  COMMAND "${MERGE}" "${WORK}/merged.csv" "${WORK}/shard0.csv" "${WORK}/shard1.csv"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep_merge failed on assignment shards (${rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK}/full.csv" "${WORK}/merged.csv"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "merged LPT shard CSV differs from the unsharded run")
endif()

# A shard run pointed at a missing plan must fail loudly, not silently
# fall back to striding (the partition would no longer match its peers).
execute_process(
  COMMAND "${EQ5}" --t-end ${T_END} --shard 0/2 --csv "${WORK}/bad.csv"
          --shard-plan "${WORK}/no-such-plan.csv"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "shard run accepted a missing cost plan")
endif()

# A plan whose costs mix scalar and batch provenance (all 14 points
# covered, so only the mix is wrong) must be rejected before anything is
# simulated or written: LPT over incommensurable costs would skew every
# shard.
set(mixed "index,micros,provenance\n")
foreach(i RANGE 13)
  if(i LESS 7)
    string(APPEND mixed "${i},100,s\n")
  else()
    string(APPEND mixed "${i},100,b\n")
  endif()
endforeach()
file(WRITE "${WORK}/mixed.csv" "${mixed}")
execute_process(
  COMMAND "${EQ5}" --t-end ${T_END} --shard 0/2 --csv "${WORK}/mixed_shard.csv"
          --shard-plan "${WORK}/mixed.csv"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE mixed_err)
if(rc EQUAL 0)
  message(FATAL_ERROR "shard run accepted a plan mixing scalar and batch costs")
endif()
if(EXISTS "${WORK}/mixed_shard.csv")
  message(FATAL_ERROR "rejected mixed-provenance plan still wrote a shard CSV")
endif()
if(NOT mixed_err MATCHES "mixes scalar")
  message(FATAL_ERROR "mixed-provenance plan failed for another reason:\n${mixed_err}")
endif()

message(STATUS "plan-emit -> LPT shards -> merge is byte-identical to the unsharded run")

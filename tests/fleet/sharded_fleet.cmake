# A 3-vantage dart-fleet run, one process per vantage, collected once with
# --shards 1 and once with --shards K: the two merged reports must be
# byte-identical. Every vantage runs the same sharded runtime and publishes
# each epoch's committed cut, so the shard count changes none of a
# vantage's totals or its histogram. With KILL set, vantage 1 crashes
# before frame 3 (exit 3) in both runs; its loss window must not depend on
# K either.
#
#   cmake -DFLEET=<dart-fleet> -DDIR=<scratch dir> -DSHARDS=3 [-DKILL=1]
#         -P sharded_fleet.cmake
foreach(var FLEET DIR SHARDS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sharded_fleet.cmake: -D${var}= is required")
  endif()
endforeach()

function(run_fleet shards report)
  set(spool ${DIR}/spool-${shards})
  file(REMOVE_RECURSE ${spool})
  foreach(id 0 1 2)
    set(fault "")
    set(want 0)
    if(KILL AND id EQUAL 1)
      set(fault --fault-kill-after 3)
      set(want 3)
    endif()
    execute_process(
      COMMAND ${FLEET} vantage --id ${id} --vantages 3 --spool ${spool}
              --connections 300 --epochs 3 --shards ${shards} ${fault}
      RESULT_VARIABLE code)
    if(NOT code EQUAL want)
      message(FATAL_ERROR
        "vantage ${id} --shards ${shards} exited ${code}, expected ${want}")
    endif()
  endforeach()
  execute_process(
    COMMAND ${FLEET} collect --spool ${spool} --vantages 3 --fence-after 2
            --max-attempts 8 --check --quiet --out ${report}
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "collect --shards ${shards} exited ${code}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${DIR})
run_fleet(1 ${DIR}/shards-1.report)
run_fleet(${SHARDS} ${DIR}/shards-${SHARDS}.report)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${DIR}/shards-1.report
          ${DIR}/shards-${SHARDS}.report
  RESULT_VARIABLE differ)
if(differ)
  file(READ ${DIR}/shards-1.report single)
  file(READ ${DIR}/shards-${SHARDS}.report sharded)
  message(FATAL_ERROR "--shards ${SHARDS} report differs from --shards 1\n"
    "--- shards 1\n${single}\n--- shards ${SHARDS}\n${sharded}")
endif()
message(STATUS "--shards ${SHARDS} report equals --shards 1")

# Golden route trajectories, run by ctest (see tests/CMakeLists.txt).
#
#   cmake -DRUN_SCENARIO=<run_scenario> -DGOLDEN_DIR=<tests/golden> \
#         -P run_scenario_golden_test.cmake
#
# Runs `run_scenario --scenario route` for every retrieval scheme at seeds 1
# and 2, plus one lvfl run under cold chaos churn with link flaps, and
# requires each stdout (effective spec + result metrics) to match
# GOLDEN_DIR/<case>.txt byte for byte. This pins the planner's orders and
# the fault-time route recomputation end to end: any change to either moves
# events, bytes or latencies. Add -DUPDATE=ON to rewrite the files instead
# (only for a deliberate re-baseline).

set(churn
    --set chaos_window_end_s=300 --set chaos_crashes_per_node_min=0.2
    --set chaos_flaps_per_link_min=0.1 --set chaos_restart_policy=cold
    --set fault_crash_recovery=true)

set(cases "")
foreach(scheme cmp slt lcf lvf lvfl)
  foreach(seed 1 2)
    list(APPEND cases "route_${scheme}_seed${seed}")
    set(args_route_${scheme}_seed${seed} --seed ${seed} --set scheme=${scheme})
  endforeach()
endforeach()
list(APPEND cases route_lvfl_churn_seed1)
set(args_route_lvfl_churn_seed1 --seed 1 --set scheme=lvfl ${churn})

foreach(case IN LISTS cases)
  execute_process(COMMAND ${RUN_SCENARIO} --scenario route ${args_${case}}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${case}: run_scenario exited ${rc}\n${err}")
  endif()
  set(golden "${GOLDEN_DIR}/${case}.txt")
  if(UPDATE)
    file(WRITE "${golden}" "${out}")
    continue()
  endif()
  file(READ "${golden}" want)
  if(NOT out STREQUAL want)
    file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/${case}.actual.txt" "${out}")
    message(FATAL_ERROR
            "${case}: stdout differs from ${golden}\n"
            "actual output: ${CMAKE_CURRENT_BINARY_DIR}/${case}.actual.txt")
  endif()
endforeach()

list(LENGTH cases n)
message(STATUS "run_scenario golden trajectories: ${n} cases match")

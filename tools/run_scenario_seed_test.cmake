# run_scenario --seed validation, run by ctest (see tests/CMakeLists.txt).
#
#   cmake -DRUN_SCENARIO=<run_scenario> -P run_scenario_seed_test.cmake
#
# 1. Each malformed seed must be a usage error (exit 2) naming the argument,
#    before any scenario runs (nothing on stdout).
# 2. The largest uint64 must be accepted (--list exits 0 without running).

foreach(bad "abc" "-1" "99999999999999999999" "")
  execute_process(COMMAND ${RUN_SCENARIO} --scenario route --seed "${bad}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--seed '${bad}': expected exit 2, got ${rc}\n${err}")
  endif()
  set(want "--seed expects a non-negative integer, got '${bad}'\n")
  if(NOT err STREQUAL want)
    message(FATAL_ERROR "--seed '${bad}': expected stderr\n${want}got\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "--seed '${bad}': expected no stdout\n${out}")
  endif()
endforeach()

execute_process(COMMAND ${RUN_SCENARIO} --seed 18446744073709551615 --list
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--seed UINT64_MAX: expected exit 0, got ${rc}\n${err}")
endif()

message(STATUS "run_scenario --seed checks passed")

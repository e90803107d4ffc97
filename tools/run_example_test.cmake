# Runs one example for ctest (see examples/CMakeLists.txt).
#
#   cmake -DEXAMPLE=<binary> [-DEXPECT=<regex>] -P run_example_test.cmake
#
# The example must exit 0 and, when EXPECT is given, print a line matching it.

execute_process(COMMAND ${EXAMPLE}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE}: expected exit 0, got ${rc}\n${out}${err}")
endif()
if(DEFINED EXPECT AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXAMPLE}: no output matches '${EXPECT}'\n${out}")
endif()
message(STATUS "${EXAMPLE} passed")

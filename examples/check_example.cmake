# Runs one example binary and fails unless it exits 0 and its standard
# output matches a regular expression:
#
#   cmake -DEXAMPLE=<binary> -DEXPECT=<regex> -P check_example.cmake
execute_process(COMMAND "${EXAMPLE}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors)
message("${output}${errors}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with '${status}'")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXAMPLE}: no output line matches '${EXPECT}'")
endif()

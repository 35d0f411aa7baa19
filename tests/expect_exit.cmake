# Runs a command and passes only when it exits with the expected code and
# its stderr matches a regex — for CLI error paths, where "fails" alone
# would also accept a crash.
#
#   cmake -DEXE=<binary> "-DARGS=<space-separated args>" -DEXPECT_EXIT=2
#         -DEXPECT_STDERR=<regex> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${code}'\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()

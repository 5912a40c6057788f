# ctest helper: runs CMD with the space-separated ARGS and passes only if
# the command exits with status 2 and prints a usage line on stderr.
#
#   cmake -DCMD=<binary> "-DARGS=--gpus 0" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${rc}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "no usage text on stderr:\n${err}")
endif()

# Runs one command line and checks how it ends (the bench flag-parser tests
# in bench/CMakeLists.txt and the hostile-scenario tests in
# examples/CMakeLists.txt):
#
#   cmake -DBIN=<binary> "-DARGS=<flags>" -DCODE=<exit code>
#         -DSTREAM=<stdout|stderr> -DTEXT=<expected substring> -P expect_cli.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT code STREQUAL "${CODE}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${code}, expected ${CODE}\n${stderr}")
endif()
string(FIND "${${STREAM}}" "${TEXT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARGS}: ${STREAM} does not mention '${TEXT}':\n${${STREAM}}")
endif()

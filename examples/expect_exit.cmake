# cmake -DCODE=<exit code> -DMATCH=<regex> -P expect_exit.cmake <command> [args...]
# passes when the command exits with CODE and its stdout + stderr match MATCH.
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 5 ${last})
  list(APPEND cmd "${CMAKE_ARGV${i}}")
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL CODE OR NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "exit ${rc} (expected ${CODE}); output must match '${MATCH}':\n${out}")
endif()

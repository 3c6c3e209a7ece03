# bad_flags.cmake — congen-serve refuses malformed numeric flags.
#
#   cmake -DSERVE=<path to congen-serve> -P bad_flags.cmake
#
# Every case must exit with status 2 before the daemon binds. Each runs
# after "--port 0 --duration 1", so a value that were wrongly accepted
# shows up as exit 0 after one second, not as a hang. One well-formed
# command line at the end checks that the daemon still starts.
if(NOT SERVE)
  message(FATAL_ERROR "pass -DSERVE=<path to congen-serve>")
endif()

set(cases
  "--port|abc"
  "--port|70000"
  "--port|-1"
  "--port|12x"
  "--port| 7"
  "--max-pipe-depth=abc"
  "--admission-sessions|many"
  "--request-soft|1.5"
  "--request-hard|-1"
  "--duration|99999999999"
  "--duration|18446744073709551616"
  "--max-heap=abc"
  "--max-heap=99999999999G"
  "--admission-heap|-1M")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  execute_process(
    COMMAND "${SERVE}" --port 0 --duration 1 ${args}
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_QUIET
    TIMEOUT 30)
  if(NOT status EQUAL 2)
    message(SEND_ERROR "congen-serve ${args}: exit status '${status}', want 2")
  endif()
endforeach()

execute_process(
  COMMAND "${SERVE}" --port 0 --duration 1 --max-pipe-depth=16
          --request-soft 0 --admission-sessions 8 --max-heap=64M
  RESULT_VARIABLE status
  OUTPUT_QUIET ERROR_QUIET
  TIMEOUT 30)
if(NOT status EQUAL 0)
  message(SEND_ERROR "congen-serve with well-formed flags: exit status '${status}', want 0")
endif()

# run_bad_flags.cmake — congen-run refuses malformed numeric flags.
#
#   cmake -DRUN=<path to congen-run> -P run_bad_flags.cmake
#
# Every case must exit with status 2 before anything runs. Each ends in
# "-e 1", so a value that were wrongly accepted shows up as exit 0. One
# well-formed command line at the end checks that the tool still runs.
if(NOT RUN)
  message(FATAL_ERROR "pass -DRUN=<path to congen-run>")
endif()

set(cases
  "--max-heap=-1"
  "--max-fuel=20000000000G"
  "--max-pipes=abc"
  "--max-depth="
  "--max-bogus=1"
  "--timeout|1x"
  "--timeout|0"
  "--timeout|-5"
  "--timeout|99999999999"
  "--supervise|2|1"
  "--supervise|0|5"
  "--supervise|1.5|3")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  execute_process(
    COMMAND "${RUN}" ${args} -e 1
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_QUIET
    TIMEOUT 30)
  if(NOT status EQUAL 2)
    message(SEND_ERROR "congen-run ${args}: exit status '${status}', want 2")
  endif()
endforeach()

execute_process(
  COMMAND "${RUN}" --timeout 30 --max-heap=64M --max-fuel=1G --max-depth=5000
          --supervise 10 20 -e "1 + 1"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_QUIET
  TIMEOUT 30)
if(NOT status EQUAL 0 OR NOT out MATCHES "2")
  message(SEND_ERROR "congen-run with well-formed flags: exit status '${status}', output '${out}'")
endif()

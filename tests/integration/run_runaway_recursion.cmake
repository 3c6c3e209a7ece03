# run_runaway_recursion.cmake — runaway recursion ends in a typed error.
#
#   cmake -DRUN=<path to congen-run> -DWORK=<scratch dir> -P run_runaway_recursion.cmake
#
# VM-to-VM calls do not use the native stack, so recursion without end
# reaches the machine's activation cap and raises 813: congen-run exits 1
# with the typed message instead of dying on a signal. A deep recursion
# that returns still runs to its answer.
if(NOT RUN OR NOT WORK)
  message(FATAL_ERROR "pass -DRUN=<path to congen-run> -DWORK=<scratch dir>")
endif()

file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/runaway_return.jn" [[def f(n) { return f(n + 1); } write(f(1));]])
file(WRITE "${WORK}/runaway_suspend.jn" [[def g(n) { suspend g(n + 1) | n; } every write(g(1)) \ 1;]])
file(WRITE "${WORK}/deep_return.jn"
  [[def down(n) { if n <= 0 then return 0; return 1 + down(n - 1); } write(down(12000));]])

foreach(name runaway_return runaway_suspend)
  execute_process(
    COMMAND "${RUN}" "${WORK}/${name}.jn"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT status EQUAL 1)
    message(SEND_ERROR "${name}: exit status '${status}', want 1")
  endif()
  if(NOT err MATCHES "813: quota exceeded: recursion depth")
    message(SEND_ERROR "${name}: stderr '${err}', want error 813")
  endif()
endforeach()

execute_process(
  COMMAND "${RUN}" "${WORK}/deep_return.jn"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  TIMEOUT 60)
if(NOT status EQUAL 0 OR NOT out MATCHES "^12000")
  message(SEND_ERROR "deep_return: exit status '${status}', output '${out}', want 12000")
endif()

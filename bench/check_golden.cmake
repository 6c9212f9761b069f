# One `paper` ctest: run a bench binary with no benchmark selected, so it
# prints only its artifact tables, and compare its stdout byte for byte with
# the recorded golden.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<bench/golden/x.txt> -DACTUAL=<file>
#         -P check_golden.cmake
#
# On a mismatch the actual stdout is left in ACTUAL for a diff; an intended
# change is re-recorded with tools/bless_goldens.sh.
execute_process(
  COMMAND "${BENCH}" "--benchmark_filter=^$"
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE stderr_text
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${stderr_text}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
    "stdout of ${BENCH} differs from ${GOLDEN}\n"
    "actual output: ${ACTUAL}\n"
    "diff the two files; re-bless with tools/bless_goldens.sh only for an "
    "intended change to a paper table")
endif()

# Example-stdout regression driver, invoked as a ctest via
#   cmake -DEXAMPLE=<example binary> -DGOLDEN=<checked-in txt>
#         -DOUT=<scratch txt> -P run_example.cmake
#
# Runs the example at its default seed and byte-compares its stdout
# against the checked-in golden, so an example that stops building the
# round it prints, or prints another result, fails right here in ctest.
foreach(var EXAMPLE GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_example.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${EXAMPLE}
  RESULT_VARIABLE run_rc
  OUTPUT_FILE ${OUT}
  ERROR_VARIABLE run_stderr)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} failed (${run_rc}):\n${run_stderr}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
    "example stdout mismatch: ${OUT} differs from ${GOLDEN}.\n"
    "If the change is intentional, regenerate with:\n"
    "  ${EXAMPLE} > ${GOLDEN}\n"
    "and record the reason in docs/BENCHMARKS.md.")
endif()

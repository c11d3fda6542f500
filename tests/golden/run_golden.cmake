# Golden-JSON regression driver, invoked as a ctest via
#   cmake -DBENCH=<mpciot-bench> -DFILTER=<scenario filter>
#         -DGOLDEN=<checked-in json> -DOUT=<scratch json>
#         [-DPARAMS=k=v;...] -P run_golden.cmake
#
# Runs the scenario at --reps 2 --seed 1 --jobs 1, with one --param per
# PARAMS entry, and byte-compares the JSON document against the
# checked-in golden. Any RNG-draw-order change in the engines, any
# schema or formatting drift in bench_core, and any seed-derivation
# change shows up here as a ctest failure — not only in CI's
# bench-smoke job.
foreach(var BENCH FILTER GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

set(param_args)
set(param_recipe "")
foreach(param IN LISTS PARAMS)
  list(APPEND param_args --param ${param})
  string(APPEND param_recipe " --param ${param}")
endforeach()

execute_process(
  COMMAND ${BENCH} --filter ${FILTER} ${param_args} --reps 2 --seed 1
          --jobs 1 --no-table --out ${OUT}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_stdout
  ERROR_VARIABLE run_stderr)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR
    "mpciot-bench failed (${run_rc}) for filter '${FILTER}':\n"
    "${run_stdout}\n${run_stderr}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
    "golden mismatch for '${FILTER}': ${OUT} differs from ${GOLDEN}.\n"
    "If the change is intentional (e.g. a documented seeding or engine "
    "change), regenerate with:\n"
    "  mpciot-bench --filter ${FILTER}${param_recipe} --reps 2 --seed 1 "
    "--jobs 1 --no-table --out ${GOLDEN}\n"
    "and record the reason in docs/BENCHMARKS.md.")
endif()

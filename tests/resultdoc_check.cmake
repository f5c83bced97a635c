# Runs every experiment `sbx_experiments list` names at --quick --seed=1
# and validates each ResultDoc JSON it writes against the schema contract
# in tools/check_bench.py. Registered as the sbx_resultdoc_schema ctest so
# serializer drift fails locally, not first in the sweep-smoke CI job.
#
# Expects: EXPERIMENTS (sbx_experiments binary), PYTHON (python3),
# CHECK_BENCH (tools/check_bench.py), OUT_DIR (scratch directory).

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(
  COMMAND "${EXPERIMENTS}" list
  RESULT_VARIABLE list_rc
  OUTPUT_VARIABLE listing)
if(NOT list_rc EQUAL 0)
  message(FATAL_ERROR "sbx_experiments list failed (rc=${list_rc})")
endif()

# One experiment per line after the header row; its name is the first
# column.
string(REPLACE "\n" ";" lines "${listing}")
list(POP_FRONT lines)
set(experiments)
foreach(line IN LISTS lines)
  if(line MATCHES "^([a-z0-9-]+)")
    list(APPEND experiments "${CMAKE_MATCH_1}")
  endif()
endforeach()
list(LENGTH experiments count)
if(count EQUAL 0)
  message(FATAL_ERROR "sbx_experiments list named no experiment")
endif()

foreach(experiment IN LISTS experiments)
  execute_process(
    COMMAND "${EXPERIMENTS}" run ${experiment} --quick --seed=1
            "--out-dir=${OUT_DIR}"
    RESULT_VARIABLE run_rc
    OUTPUT_QUIET)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
      "sbx_experiments run ${experiment} --quick failed (rc=${run_rc})")
  endif()
  if(NOT EXISTS "${OUT_DIR}/${experiment}.json")
    message(FATAL_ERROR "${experiment} wrote no ResultDoc JSON to ${OUT_DIR}")
  endif()
endforeach()

file(GLOB result_jsons "${OUT_DIR}/*.json")
execute_process(
  COMMAND "${PYTHON}" "${CHECK_BENCH}" validate-resultdoc ${result_jsons}
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "validate-resultdoc failed (rc=${check_rc})")
endif()
message(STATUS "validated ${count} ResultDocs: ${experiments}")

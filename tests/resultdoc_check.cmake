# Runs every experiment `sbx_experiments list` names at --quick --seed=1
# and validates each ResultDoc JSON it writes against the schema contract
# in tools/check_bench.py. Registered as the sbx_resultdoc_schema ctest so
# serializer drift fails locally, not first in the sweep-smoke CI job.
#
# With THREAD_COUNTS (comma-separated, e.g. 1,4) it runs every experiment
# once per thread count and fails unless each JSON and CSV is
# byte-identical across them: the "same seed, same bits at any --threads"
# contract (README "Determinism"), checked for the whole registry. That
# is the sbx_resultdoc_threads ctest.
#
# Expects: EXPERIMENTS (sbx_experiments binary), PYTHON (python3),
# CHECK_BENCH (tools/check_bench.py), OUT_DIR (scratch directory).
# Optional: THREAD_COUNTS.

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

# One run directory per thread count; without THREAD_COUNTS one run at
# the CLI's default thread count, straight into OUT_DIR.
set(run_dirs)
set(thread_flags)
if(DEFINED THREAD_COUNTS AND NOT THREAD_COUNTS STREQUAL "")
  string(REPLACE "," ";" thread_counts "${THREAD_COUNTS}")
  foreach(threads IN LISTS thread_counts)
    list(APPEND run_dirs "${OUT_DIR}/threads-${threads}")
    list(APPEND thread_flags "--threads=${threads}")
  endforeach()
else()
  set(run_dirs "${OUT_DIR}")
endif()
list(LENGTH run_dirs run_count)
math(EXPR last_run "${run_count} - 1")

foreach(experiment IN LISTS experiments)
  foreach(r RANGE ${last_run})
    list(GET run_dirs ${r} run_dir)
    set(thread_flag "")
    if(thread_flags)
      list(GET thread_flags ${r} thread_flag)
    endif()
    execute_process(
      COMMAND "${EXPERIMENTS}" run ${experiment} --quick --seed=1
              ${thread_flag} "--out-dir=${run_dir}"
      RESULT_VARIABLE run_rc
      OUTPUT_QUIET)
    if(NOT run_rc EQUAL 0)
      message(FATAL_ERROR "sbx_experiments run ${experiment} --quick "
                          "${thread_flag} failed (rc=${run_rc})")
    endif()
    if(NOT EXISTS "${run_dir}/${experiment}.json")
      message(FATAL_ERROR "${experiment} wrote no ResultDoc JSON to ${run_dir}")
    endif()
  endforeach()
endforeach()

list(GET run_dirs 0 first_dir)
if(run_count GREATER 1)
  file(GLOB reference_files RELATIVE "${first_dir}" "${first_dir}/*.json"
       "${first_dir}/*.csv")
  foreach(r RANGE 1 ${last_run})
    list(GET run_dirs ${r} run_dir)
    file(GLOB run_files RELATIVE "${run_dir}" "${run_dir}/*.json"
         "${run_dir}/*.csv")
    if(NOT run_files STREQUAL reference_files)
      message(FATAL_ERROR
        "${run_dir} and ${first_dir} hold different files:\n"
        "${run_files}\nvs\n${reference_files}")
    endif()
    foreach(name IN LISTS reference_files)
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${first_dir}/${name}"
                "${run_dir}/${name}"
        RESULT_VARIABLE differ)
      if(NOT differ EQUAL 0)
        message(FATAL_ERROR
          "${name} differs between ${first_dir} and ${run_dir}")
      endif()
    endforeach()
  endforeach()
  list(LENGTH reference_files compared)
  message(STATUS "${compared} files byte-identical at --threads=${THREAD_COUNTS}")
endif()

file(GLOB result_jsons "${first_dir}/*.json")
execute_process(
  COMMAND "${PYTHON}" "${CHECK_BENCH}" validate-resultdoc ${result_jsons}
  RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "validate-resultdoc failed (rc=${check_rc})")
endif()
message(STATUS "validated ${count} ResultDocs: ${experiments}")

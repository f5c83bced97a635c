# Runs attack-axis sweeps at --threads=4, whose configurations sample one
# corpus pool and so share it (src/eval/corpus_pool.h), and fails unless
# every configuration's ResultDoc JSON and CSV tables are byte-identical
# to a standalone `run` of that configuration at --threads=1. Registered
# as the sbx_sweep_matches_run ctest: sharing a pool across configurations
# in flight together must never show in any output. The threshold sweep
# includes a trigger-carrying, ham-labeled attack. Last, a sweep whose
# axes fail validation must exit 2 without printing to stdout.
#
# Expects: EXPERIMENTS (sbx_experiments binary), OUT_DIR (scratch
# directory).

file(REMOVE_RECURSE "${OUT_DIR}")

# Sweeps `experiment` over `axis_key`=`axis_values` (comma list) and
# compares config i's files, <experiment>_<i>*.{json,csv}, with the
# <experiment>*.{json,csv} of `run experiment axis_key=<value i>`.
function(check_sweep experiment axis_key axis_values)
  set(sweep_dir "${OUT_DIR}/${experiment}-sweep")
  file(MAKE_DIRECTORY "${sweep_dir}")
  execute_process(
    COMMAND "${EXPERIMENTS}" sweep ${experiment} --quick --seed=1
            --threads=4 --axis "${axis_key}=${axis_values}"
            "--out-dir=${sweep_dir}"
    RESULT_VARIABLE sweep_rc
    OUTPUT_QUIET)
  if(NOT sweep_rc EQUAL 0)
    message(FATAL_ERROR "sweep ${experiment} --axis ${axis_key}="
                        "${axis_values} failed (rc=${sweep_rc})")
  endif()

  string(LENGTH "${experiment}" name_length)
  string(REPLACE "," ";" values "${axis_values}")
  set(i 0)
  foreach(value IN LISTS values)
    set(run_dir "${OUT_DIR}/${experiment}-run-${i}")
    file(MAKE_DIRECTORY "${run_dir}")
    execute_process(
      COMMAND "${EXPERIMENTS}" run ${experiment} --quick --seed=1
              --threads=1 "${axis_key}=${value}" "--out-dir=${run_dir}"
      RESULT_VARIABLE run_rc
      OUTPUT_QUIET)
    if(NOT run_rc EQUAL 0)
      message(FATAL_ERROR "run ${experiment} ${axis_key}=${value} failed "
                          "(rc=${run_rc})")
    endif()

    file(GLOB run_jsons RELATIVE "${run_dir}" "${run_dir}/*.json")
    file(GLOB run_csvs RELATIVE "${run_dir}" "${run_dir}/*.csv")
    if(NOT run_jsons OR NOT run_csvs)
      message(FATAL_ERROR "run ${experiment} ${axis_key}=${value} wrote "
                          "no JSON or no CSV to ${run_dir}")
    endif()
    foreach(name IN LISTS run_jsons run_csvs)
      string(SUBSTRING "${name}" ${name_length} -1 rest)
      set(sweep_name "${experiment}_${i}${rest}")
      if(NOT EXISTS "${sweep_dir}/${sweep_name}")
        message(FATAL_ERROR "the sweep wrote no ${sweep_name} (config "
                            "${i}, ${axis_key}=${value})")
      endif()
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${sweep_dir}/${sweep_name}" "${run_dir}/${name}"
        RESULT_VARIABLE differ)
      if(NOT differ EQUAL 0)
        message(FATAL_ERROR "${sweep_dir}/${sweep_name} differs from "
                            "${run_dir}/${name}")
      endif()
    endforeach()
    math(EXPR i "${i} + 1")
  endforeach()
  message(STATUS "sweep ${experiment} --axis ${axis_key}=${axis_values}: "
                 "every config matches its standalone run")
endfunction()

check_sweep(dictionary attack optimal,usenet,aspell)
check_sweep(threshold attack usenet,aspell,backdoor-trigger)

# A sweep whose axes fail validation exits 2 before it prints anything.
execute_process(
  COMMAND "${EXPERIMENTS}" sweep dictionary --quick --axis attack=usenet,optimal
          --axis attack=aspell
  RESULT_VARIABLE rejected_rc
  OUTPUT_VARIABLE rejected_stdout
  ERROR_QUIET)
if(NOT rejected_rc EQUAL 2)
  message(FATAL_ERROR "sweep with a repeated axis key exited ${rejected_rc}, "
                      "not 2")
endif()
if(NOT rejected_stdout STREQUAL "")
  message(FATAL_ERROR "sweep with a repeated axis key printed to stdout: "
                      "${rejected_stdout}")
endif()
message(STATUS "sweep with a repeated axis key: exit 2, no stdout")

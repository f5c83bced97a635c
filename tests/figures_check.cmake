# Runs every figure `sbx_experiments figure list` names at --quick
# --seed=1, once at --threads=1 and once at --threads=4, each from its own
# working directory with the relative --out-dir=csv, so the CSV path a run
# echoes is the same string at both thread counts. Fails on a nonzero exit
# or an echoed CSV that is missing, and unless every figure's stdout and
# every CSV are byte-identical across the two thread counts. Registered as
# the sbx_figures ctest.
#
# Expects: EXPERIMENTS (sbx_experiments binary), OUT_DIR (scratch
# directory).

file(REMOVE_RECURSE "${OUT_DIR}")
set(thread_counts 1 4)
foreach(threads IN LISTS thread_counts)
  file(MAKE_DIRECTORY "${OUT_DIR}/threads-${threads}")
endforeach()

execute_process(
  COMMAND "${EXPERIMENTS}" figure list
  RESULT_VARIABLE list_rc
  OUTPUT_VARIABLE listing)
if(NOT list_rc EQUAL 0)
  message(FATAL_ERROR "sbx_experiments figure list failed (rc=${list_rc})")
endif()

# One figure per line after the header row; its name is the first column.
string(REPLACE "\n" ";" lines "${listing}")
list(POP_FRONT lines)
set(figures)
foreach(line IN LISTS lines)
  if(line MATCHES "^([a-z0-9_]+)")
    list(APPEND figures "${CMAKE_MATCH_1}")
  endif()
endforeach()
list(LENGTH figures count)
if(count EQUAL 0)
  message(FATAL_ERROR "sbx_experiments figure list named no figure")
endif()

foreach(figure IN LISTS figures)
  foreach(threads IN LISTS thread_counts)
    set(run_dir "${OUT_DIR}/threads-${threads}")
    execute_process(
      COMMAND "${EXPERIMENTS}" figure ${figure} --quick --seed=1
              --threads=${threads} --out-dir=csv
      WORKING_DIRECTORY "${run_dir}"
      RESULT_VARIABLE run_rc
      OUTPUT_FILE "${run_dir}/${figure}.stdout")
    if(NOT run_rc EQUAL 0)
      message(FATAL_ERROR "sbx_experiments figure ${figure} --quick "
                          "--threads=${threads} failed (rc=${run_rc})")
    endif()
    file(STRINGS "${run_dir}/${figure}.stdout" written
         REGEX "CSV written to ")
    foreach(line IN LISTS written)
      string(REGEX REPLACE ".*CSV written to " "" csv "${line}")
      if(NOT EXISTS "${run_dir}/${csv}")
        message(FATAL_ERROR "figure ${figure} --threads=${threads} echoed "
                            "${csv} but did not write it")
      endif()
    endforeach()
  endforeach()
endforeach()

file(GLOB reference_files RELATIVE "${OUT_DIR}/threads-1"
     "${OUT_DIR}/threads-1/*.stdout" "${OUT_DIR}/threads-1/csv/*.csv")
file(GLOB other_files RELATIVE "${OUT_DIR}/threads-4"
     "${OUT_DIR}/threads-4/*.stdout" "${OUT_DIR}/threads-4/csv/*.csv")
if(NOT other_files STREQUAL reference_files)
  message(FATAL_ERROR "--threads=1 and --threads=4 wrote different files:\n"
                      "${reference_files}\nvs\n${other_files}")
endif()
foreach(name IN LISTS reference_files)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT_DIR}/threads-1/${name}"
            "${OUT_DIR}/threads-4/${name}"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${name} differs between --threads=1 and "
                        "--threads=4")
  endif()
endforeach()
list(LENGTH reference_files compared)
message(STATUS "${count} figures: ${compared} files byte-identical at "
               "--threads=1 and --threads=4")

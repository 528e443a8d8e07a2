# Runs one paper-result bench against the committed Source2/Target2 pools and
# requires the results CSV it writes to match the committed copy byte for
# byte, so a committed paper table or figure cannot drift from what the code
# produces.
#
#   cmake -DBENCH=<bench binary> -DCSV=<results file name>
#         -DDATA=<repo>/data -DWORK=<scratch dir> -P repro_csv.cmake
#
# The bench runs with PPAT_DATA_DIR=WORK, a fresh copy of the two pools, so
# it never writes into the source tree.
foreach(var BENCH CSV DATA WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "repro_csv.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(COPY "${DATA}/source2.csv" "${DATA}/target2.csv" DESTINATION "${WORK}")

set(ENV{PPAT_DATA_DIR} "${WORK}")
execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (${rc})")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK}/${CSV}" "${DATA}/${CSV}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${WORK}/${CSV}" got)
  file(READ "${DATA}/${CSV}" want)
  message(FATAL_ERROR "${CSV} drifted from the code.\n"
                      "--- regenerated ---\n${got}--- committed ---\n${want}")
endif()

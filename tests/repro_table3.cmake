# Regenerates Table 3 from the committed Source2/Target2 pools and requires
# the result to match data/results_table3.csv byte for byte, so the committed
# paper table cannot drift from what the code produces.
#
#   cmake -DBENCH=<bench_table3> -DDATA=<repo>/data -DWORK=<scratch dir>
#         -P repro_table3.cmake
foreach(var BENCH DATA WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "repro_table3.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(COPY "${DATA}/source2.csv" "${DATA}/target2.csv" DESTINATION "${WORK}")

set(ENV{PPAT_DATA_DIR} "${WORK}")
execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_table3 failed (${rc})")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK}/results_table3.csv" "${DATA}/results_table3.csv"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${WORK}/results_table3.csv" got)
  file(READ "${DATA}/results_table3.csv" want)
  message(FATAL_ERROR "results_table3.csv drifted from the code.\n"
                      "--- regenerated ---\n${got}--- committed ---\n${want}")
endif()

# Fails unless `apxced ced` exits 0 with byte-identical stdout at
# --threads 1 and --threads 4.
#   cmake -DAPXCED=<apxced> -DCIRCUIT=<circuit> -P ced_identical_across_threads.cmake
cmake_minimum_required(VERSION 3.16)
foreach(threads 1 4)
  execute_process(COMMAND ${APXCED} ced ${CIRCUIT} --threads ${threads}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out_${threads}
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "apxced ced --threads ${threads} exited ${rc}:\n${err}")
  endif()
endforeach()
if(NOT "${out_1}" STREQUAL "${out_4}")
  message(FATAL_ERROR
          "--threads 1:\n${out_1}\n--threads 4:\n${out_4}\noutputs differ")
endif()
message(STATUS "identical at --threads 1 and 4:\n${out_1}")

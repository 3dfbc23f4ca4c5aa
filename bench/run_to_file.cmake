# Run `${BIN} --jobs ${JOBS}` and write its stdout to ${OUT}; a nonzero exit
# fails the calling test. Usage:
#   cmake -DBIN=<exe> -DJOBS=<n> -DOUT=<file> -P run_to_file.cmake
execute_process(COMMAND ${BIN} --jobs ${JOBS} OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --jobs ${JOBS} exited ${rc}")
endif()

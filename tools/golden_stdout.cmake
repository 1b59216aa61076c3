# Pins a program's stdout byte for byte against a golden file. Invoked as
# a ctest entry from examples/CMakeLists.txt:
#   cmake -DPROGRAM=<binary> -DGOLDEN=<file> -P golden_stdout.cmake
execute_process(COMMAND "${PROGRAM}"
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited ${rc}:\n${out}")
endif()
file(READ "${GOLDEN}" golden)
if(NOT out STREQUAL golden)
  message(FATAL_ERROR "${PROGRAM} output differs from ${GOLDEN}:\n${out}")
endif()

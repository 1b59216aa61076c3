# The README round trip of the generated component test suite: the suite
# recorded from rearShipped passes on rearShipped (12/12, exit 0) and
# catches the faulty revision rearFaulty (1/12, exit 1). Invoked as a ctest
# entry from tools/CMakeLists.txt:
#   cmake -DMUI=<mui-binary> -DMODEL=<railcab.muml> -DSUITE=<out-file>
#         -P suite_roundtrip.cmake
execute_process(COMMAND "${MUI}" suite-gen "${MODEL}" DistanceCoordination
                        rearRole rearShipped
                OUTPUT_FILE "${SUITE}" ERROR_VARIABLE summary
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mui suite-gen exited ${rc}:\n${summary}")
endif()
foreach(run "rearShipped;0;12/12" "rearFaulty;1;1/12")
  list(GET run 0 hidden)
  list(GET run 1 want_rc)
  list(GET run 2 want_passed)
  execute_process(COMMAND "${MUI}" suite-run "${MODEL}" "${SUITE}" ${hidden}
                          rearRole
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL want_rc OR NOT out MATCHES "^${want_passed} tests passed\n")
    message(FATAL_ERROR "mui suite-run on ${hidden} exited ${rc} (want "
                        "${want_rc}, ${want_passed} passed):\n${out}")
  endif()
endforeach()

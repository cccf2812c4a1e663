# Runs `jumanji_cli --scenario SCENARIO --bench-json OUT` and checks
# the phase split it reports: the shared calibrations are timed as
# their own phase, so calibrate_s must be positive, and simulate_s is
# the rest of the wall clock.
#
#   cmake -DCLI=<jumanji_cli> -DSCENARIO=<json> -DOUT=<json> -P this
execute_process(
    COMMAND ${CLI} --scenario ${SCENARIO} --jobs 4 --bench-json ${OUT}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "jumanji_cli exited with ${rc}")
endif()
file(READ ${OUT} doc)
string(JSON wall GET "${doc}" wall_seconds)
string(JSON calibrate GET "${doc}" phases calibrate_s)
string(JSON simulate GET "${doc}" phases simulate_s)
message(STATUS "wall ${wall} s = calibrate ${calibrate} s + simulate ${simulate} s")
if(NOT calibrate GREATER 0)
    message(FATAL_ERROR "calibrate_s is ${calibrate}, expected > 0")
endif()
if(NOT simulate GREATER 0 OR NOT simulate LESS wall)
    message(FATAL_ERROR "simulate_s ${simulate} is not the remainder of wall ${wall}")
endif()

# `--scenario FILE --selfcheck` runs the scenario twice and compares
# the stats fingerprints. It must print "-> OK", exit 0, and leave the
# result cache untouched (a cached second run would replay the first).
#
#   cmake -DCLI=<jumanji_cli> -DSCENARIO=<json> -DCACHE=<dir> -P this
file(REMOVE_RECURSE ${CACHE})
execute_process(
    COMMAND ${CLI} --scenario ${SCENARIO} --selfcheck --cache-dir ${CACHE}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out)
message(STATUS "${out}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "jumanji_cli exited with ${rc}")
endif()
if(NOT out MATCHES "selfcheck: run1=[0-9a-f]+ run2=[0-9a-f]+ -> OK")
    message(FATAL_ERROR "no matching selfcheck line in: ${out}")
endif()
file(GLOB_RECURSE cached ${CACHE}/*)
if(cached)
    message(FATAL_ERROR "selfcheck wrote to the result cache: ${cached}")
endif()

import run

# the benchmark's modules import cbmdetect from the checkout's src/
run.import_package()

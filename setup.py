"""Build the optional compiled kernel; without a C compiler the package
installs anyway and runs on the pure-Python kernel."""

from setuptools import Extension, setup

setup(ext_modules=[Extension("matroidsplit._kernel._speed",
                             ["src/matroidsplit/_kernel/_speed.c"],
                             extra_compile_args=["-O3"], optional=True)])

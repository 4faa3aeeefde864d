# Circuits handed to code qlint cannot see, in every shape of call argument
def submit(*circuits, **options):
    pass


bell = QuantumCircuit(2, 2)
bell.h(0)
bell.cx(0, 1)
bell.measure(0, 0)
backend.run([bell], shots=1024)
bell.measure(0, 0)

ghz = QuantumCircuit(3, 3)
ghz.h(0)
ghz.cx(0, 1)
ghz.cx(1, 2)
ghz.measure(0, 0)
submit(*(ghz,), shots=1024)
ghz.measure(0, 0)

qft = QuantumCircuit(2, 2)
qft.h(0)
qft.measure(0, 0)
pool.map(lambda shots: execute(qft, shots=shots), [100, 1000])
qft.measure(0, 0)

grover = QuantumCircuit(2, 2)
grover.h(0)
grover.measure(0, 0)
batch = grover
submit(**{"circuit": batch})
grover.measure(0, 0)

ansatz = QuantumCircuit(2, 2)
ansatz.ry(0.5, 0)
ansatz.measure(0, 0)
sampler.run([c for c in [ansatz]])
ansatz.measure(0, 0)

unused = QuantumCircuit(2, 2)
unused.h(0)
unused.measure(0, 0)
unused.measure(0, 0)

"""ADAM optimizer over the non-frozen parameters of a network."""

from __future__ import annotations

import numpy as np

# the defaults of Kingma & Ba 2015, "Adam: A Method for Stochastic Optimization"
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, net, lr):
        self.net = net
        self.lr = float(lr)
        self.t = 0
        self.m = {}
        self.v = {}
        for node_name, pname in net.trainable_parameters():
            arr = net.node(node_name).layer.params[pname]
            self.m[(node_name, pname)] = np.zeros_like(arr)
            self.v[(node_name, pname)] = np.zeros_like(arr)

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for (node_name, pname), m in self.m.items():
            layer = self.net.node(node_name).layer
            if layer.frozen:
                continue
            g = layer.grads[pname]
            v = self.v[(node_name, pname)]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            layer.set_param(pname, layer.params[pname] - self.lr * m_hat / (np.sqrt(v_hat) + EPS))
        for node in self.net.nodes:
            if not node.layer.frozen:
                node.layer.project()

    def reset_moments(self):
        for key in self.m:
            self.m[key][...] = 0.0
            self.v[key][...] = 0.0
        self.t = 0
